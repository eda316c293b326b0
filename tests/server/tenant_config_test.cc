// Tenant config parsing (server/tenant.h): the line format rfidcepd
// reads at startup. Malformed values are config errors that name their
// line, never silently coerced.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/tenant.h"

namespace rfidcep::server {
namespace {

Status ParseError(const std::string& text) {
  Result<std::vector<TenantConfig>> parsed = ParseTenantConfigText(text, "");
  EXPECT_FALSE(parsed.ok()) << text;
  return parsed.status();
}

TEST(TenantConfigTest, ParsesEveryKey) {
  Result<std::vector<TenantConfig>> parsed = ParseTenantConfigText(
      "# comment\n"
      "\n"
      "tenant alpha rules=a.rules store=0 "
      "tolerate_out_of_order=true\n"
      "tenant beta rules=/abs/b.rules\n",
      "/etc/rfidcep");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  const TenantConfig& alpha = (*parsed)[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.rules_file, "/etc/rfidcep/a.rules");
  EXPECT_FALSE(alpha.store);
  EXPECT_TRUE(alpha.tolerate_out_of_order);
  const TenantConfig& beta = (*parsed)[1];
  EXPECT_EQ(beta.rules_file, "/abs/b.rules");
  EXPECT_TRUE(beta.store);
}

// Keys of modes the engine does not have are config errors, not ignored.
TEST(TenantConfigTest, RemovedModeKeysAreUnknown) {
  for (const std::string key : {"partition", "async", "shards"}) {
    Status status =
        ParseError("tenant a rules=r\ntenant b rules=r " + key + "=2\n");
    EXPECT_NE(status.message().find("unknown key '" + key + "'"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("(line 2)"), std::string::npos)
        << status.message();
  }
}

TEST(TenantConfigTest, DuplicateTenantRejected) {
  Status status = ParseError("tenant a rules=r\n\ntenant a rules=s\n");
  EXPECT_NE(status.message().find("duplicate tenant 'a'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("(line 3)"), std::string::npos)
      << status.message();
}

TEST(TenantConfigTest, MissingRulesRejected) {
  Status status = ParseError("tenant a store=0\n");
  EXPECT_NE(status.message().find("has no rules= file"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("(line 1)"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace rfidcep::server

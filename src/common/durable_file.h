// Crash-durable file replacement and directory entries.
//
// A file's fsync makes its data durable but not its name: a created or
// renamed entry is data of the directory, synced by fsync on the
// directory itself. POSIX also does not order a rename after the renamed
// file's data, so a rename over a live file must follow an fsync of the
// new one, or a power loss can leave the name pointing at an empty file.

#ifndef RFIDCEP_COMMON_DURABLE_FILE_H_
#define RFIDCEP_COMMON_DURABLE_FILE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace rfidcep::common {

// fsyncs the directory `dir`, making the entries created, renamed or
// removed in it so far durable.
Status SyncDirectory(const std::string& dir);

// Replaces `path` with `bytes` so that after a crash it holds either its
// previous content or all of `bytes`: writes `<path>.tmp`, fsyncs it,
// renames it over `path`, then fsyncs the directory. A write that fails
// midway leaves the previous file in place.
Status ReplaceFile(const std::string& path, std::string_view bytes);

}  // namespace rfidcep::common

#endif  // RFIDCEP_COMMON_DURABLE_FILE_H_

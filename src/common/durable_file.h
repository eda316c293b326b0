// Crash-durable file replacement and directory entries, and the one
// whole-file read.
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

// Creates `dir` and each missing directory above it, fsyncing every
// created directory's parent after the mkdir, so the new entries survive
// a power loss. Existing directories are left as they are.
Status CreateDirectories(const std::string& dir);

// Replaces `path` with `bytes` so that after a crash it holds either its
// previous content or all of `bytes`: writes `<path>.tmp`, fsyncs it,
// renames it over `path`, then fsyncs the directory. A write that fails
// midway leaves the previous file in place.
Status ReplaceFile(const std::string& path, std::string_view bytes);

// Reads the whole file at `path` into *out with one sized read. A failed
// or short read is an error, never a shorter file: a caller that took
// what was read for the file could cut good data from it. kNotFound when
// `path` does not exist; every message names the file.
Status ReadFile(const std::string& path, std::string* out);

}  // namespace rfidcep::common

#endif  // RFIDCEP_COMMON_DURABLE_FILE_H_

// The byte encoding of action parameters (store values bound by a rule
// firing), shared by WAL records and the snapshot's pending-action
// section.
//
// Params: u32 count, then per parameter in name order: u32-length name,
// u8 is_multi, then one value, or a u32 count and that many values. A
// value is a u8 ValueKind tag and its payload: none for kNull and kUc,
// i64 for kInt and kTime, the IEEE-754 bit pattern as u64 for kDouble (so
// re-encoding is byte-exact), u32-length bytes for kString.

#ifndef RFIDCEP_STORE_PARAM_CODEC_H_
#define RFIDCEP_STORE_PARAM_CODEC_H_

#include "common/byte_codec.h"
#include "store/sql_executor.h"

namespace rfidcep::store {

void PutParams(common::ByteWriter& w, const ParamMap& params);

// Replaces *out with the decoded parameters. An unknown value kind, like
// any malformed field, latches the reader's failure.
void GetParams(common::ByteReader& r, ParamMap* out);

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_PARAM_CODEC_H_

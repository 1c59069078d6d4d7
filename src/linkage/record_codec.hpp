// PersonRecord byte codec, shared by the snapshot + journal files
// (durability), cluster partition blobs and the serve protocol
// (networking).  Signatures have no codec: they are derived from a record
// under the reader's layout, never serialized.
// One definition of the record layout means the recovery path and the
// wire path can never disagree about what a serialized record looks like.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "linkage/record.hpp"
#include "util/wire.hpp"

namespace fbf::linkage::wire {

void put_record(std::string& out, const PersonRecord& r);
[[nodiscard]] bool get_record(fbf::util::wire::Reader& in, PersonRecord& r);

/// A record list: u64 count, then each record.  The payload of a journal
/// frame and of a cluster partition blob.
void put_record_list(std::string& out, std::span<const PersonRecord> records);
/// Appends the list that is exactly `payload` to `out`; false when it is
/// cut short or has trailing bytes.
[[nodiscard]] bool get_record_list(std::string_view payload,
                                   std::vector<PersonRecord>& out);

}  // namespace fbf::linkage::wire

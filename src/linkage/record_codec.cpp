#include "linkage/record_codec.hpp"

#include <algorithm>

namespace fbf::linkage::wire {

namespace w = fbf::util::wire;

void put_record(std::string& out, const PersonRecord& r) {
  w::put<std::uint64_t>(out, r.id);
  for (const RecordField f : all_record_fields()) {
    w::put_string(out, r.field(f));
  }
}

bool get_record(w::Reader& in, PersonRecord& r) {
  if (!in.get(r.id)) {
    return false;
  }
  for (const RecordField f : all_record_fields()) {
    if (!in.get_string(r.field(f))) {
      return false;
    }
  }
  return true;
}

void put_record_list(std::string& out, std::span<const PersonRecord> records) {
  w::put<std::uint64_t>(out, records.size());
  for (const PersonRecord& r : records) {
    put_record(out, r);
  }
}

bool get_record_list(std::string_view payload, std::vector<PersonRecord>& out) {
  w::Reader in{payload};
  std::uint64_t count = 0;
  if (!in.get(count)) {
    return false;
  }
  // A lying count cannot reserve more than the payload could hold.
  out.reserve(out.size() + static_cast<std::size_t>(
                               std::min<std::uint64_t>(count, payload.size())));
  for (std::uint64_t i = 0; i < count; ++i) {
    PersonRecord r;
    if (!get_record(in, r)) {
      return false;
    }
    out.push_back(std::move(r));
  }
  return in.done();
}

}  // namespace fbf::linkage::wire

#include "linkage/record_codec.hpp"

#include <algorithm>

#include "core/signature.hpp"

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

void put_signatures(std::string& out, const RecordSignatures& sigs) {
  for (const fbf::core::Signature& sig : sigs.sigs) {
    w::put<std::uint8_t>(out, static_cast<std::uint8_t>(sig.size()));
    for (const std::uint32_t word : sig.words()) {
      w::put<std::uint32_t>(out, word);
    }
  }
}

bool get_signatures(w::Reader& in, RecordSignatures& sigs) {
  for (fbf::core::Signature& sig : sigs.sigs) {
    std::uint8_t n = 0;
    if (!in.get(n) || n > fbf::core::Signature::kMaxWords) {
      return false;
    }
    sig = {};
    for (std::uint8_t word_index = 0; word_index < n; ++word_index) {
      std::uint32_t word = 0;
      if (!in.get(word)) {
        return false;
      }
      sig.push(word);
    }
  }
  return true;
}

}  // namespace fbf::linkage::wire

#include "metrics/phonetic.hpp"

#include <algorithm>
#include <cstddef>

#include "util/ascii.hpp"

namespace fbf::metrics {

namespace {

bool is_vowel(char ch) noexcept {
  switch (ch) {
    case 'A':
    case 'E':
    case 'I':
    case 'O':
    case 'U':
      return true;
    default:
      return false;
  }
}

/// Uppercase letters only (NYSIIS and refined soundex both ignore
/// punctuation, digits and spacing).
std::string clean_letters(std::string_view name) {
  return fbf::util::letters_only_upper(name);
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         std::string_view(s).substr(0, prefix.size()) == prefix;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         std::string_view(s).substr(s.size() - suffix.size()) == suffix;
}

/// Same-length translation: writes `with` over w[pos, pos + with.size()).
/// Every NYSIIS cluster rewrite but the terminal ones keeps the length, so
/// an in-place copy says exactly that.  (g++ 12 also flags replace() here
/// with a -Wrestrict false positive, which breaks -Werror builds.)
void overwrite(std::string& w, std::size_t pos, std::string_view with) {
  std::copy(with.begin(), with.end(),
            w.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace

std::string nysiis(std::string_view name) {
  std::string w = clean_letters(name);
  if (w.empty()) {
    return w;
  }
  // Step 1: initial-cluster translations.
  if (starts_with(w, "MAC")) {
    overwrite(w, 0, "MCC");
  } else if (starts_with(w, "KN")) {
    overwrite(w, 0, "NN");
  } else if (starts_with(w, "K")) {
    overwrite(w, 0, "C");
  } else if (starts_with(w, "PH") || starts_with(w, "PF")) {
    overwrite(w, 0, "FF");
  } else if (starts_with(w, "SCH")) {
    overwrite(w, 0, "SSS");
  }
  // Step 2: terminal-cluster translations.
  if (ends_with(w, "EE") || ends_with(w, "IE")) {
    w.replace(w.size() - 2, 2, "Y");
  } else if (ends_with(w, "DT") || ends_with(w, "RT") || ends_with(w, "RD") ||
             ends_with(w, "NT") || ends_with(w, "ND")) {
    w.replace(w.size() - 2, 2, "D");
  }
  // Step 3: the key starts with the (translated) first character.
  std::string key(1, w[0]);
  // Step 4: scan remaining characters with context rules.
  for (std::size_t i = 1; i < w.size(); ++i) {
    if (w.compare(i, 2, "EV") == 0) {
      overwrite(w, i, "AF");
    } else if (is_vowel(w[i])) {
      w[i] = 'A';
    } else if (w[i] == 'Q') {
      w[i] = 'G';
    } else if (w[i] == 'Z') {
      w[i] = 'S';
    } else if (w[i] == 'M') {
      w[i] = 'N';
    } else if (w.compare(i, 2, "KN") == 0) {
      overwrite(w, i, "NN");
    } else if (w[i] == 'K') {
      w[i] = 'C';
    } else if (w.compare(i, 3, "SCH") == 0) {
      overwrite(w, i, "SSS");
    } else if (w.compare(i, 2, "PH") == 0) {
      overwrite(w, i, "FF");
    } else if (w[i] == 'H' &&
               (!is_vowel(w[i - 1]) ||
                (i + 1 < w.size() && !is_vowel(w[i + 1])))) {
      w[i] = w[i - 1];
    } else if (w[i] == 'W' && is_vowel(w[i - 1])) {
      w[i] = w[i - 1];
    }
    // Append if it differs from the last key character.
    if (key.back() != w[i]) {
      key.push_back(w[i]);
    }
  }
  // Step 5: terminal cleanup — applied again after truncation because
  // cutting to 6 characters can re-expose a trailing S or A.
  const auto terminal_cleanup = [](std::string& k) {
    // Applied to a fixpoint so the key never ends in S or A (stripping
    // one suffix can expose another, e.g. "...SA" -> "...S" -> "...").
    bool changed = true;
    while (changed && k.size() > 1) {
      changed = false;
      if (k.back() == 'S') {
        k.pop_back();
        changed = true;
        continue;
      }
      if (ends_with(k, "AY")) {
        k.replace(k.size() - 2, 2, "Y");
        changed = true;
        continue;
      }
      if (k.back() == 'A') {
        k.pop_back();
        changed = true;
      }
    }
  };
  terminal_cleanup(key);
  // Step 6: classic NYSIIS caps the key at 6 characters.
  if (key.size() > 6) {
    key.resize(6);
  }
  terminal_cleanup(key);
  return key;
}

std::string refined_soundex(std::string_view name) {
  const std::string w = clean_letters(name);
  if (w.empty()) {
    return {};
  }
  // Fine-grained consonant classes (vowels + H/W/Y map to 0).
  constexpr char kCode[26] = {
      //  A    B    C    D    E    F    G    H    I    J    K    L    M
      '0', '1', '3', '6', '0', '2', '4', '0', '0', '4', '3', '7', '8',
      //  N    O    P    Q    R    S    T    U    V    W    X    Y    Z
      '8', '0', '1', '5', '9', '3', '6', '0', '2', '0', '5', '0', '5'};
  std::string out(1, w[0]);
  char last = '\0';
  for (const char ch : w) {
    const char code = kCode[fbf::util::alpha_index(ch)];
    if (code != last) {
      out.push_back(code);
      last = code;
    }
  }
  return out;
}

bool nysiis_match(std::string_view s, std::string_view t) {
  const std::string cs = nysiis(s);
  return !cs.empty() && cs == nysiis(t);
}

bool refined_soundex_match(std::string_view s, std::string_view t) {
  const std::string cs = refined_soundex(s);
  return !cs.empty() && cs == refined_soundex(t);
}

}  // namespace fbf::metrics

#include "linkage/standardize.hpp"

#include <gtest/gtest.h>

#include "datagen/dates.hpp"

namespace {

namespace lk = fbf::linkage;

TEST(StandardizeName, CaseAndPunctuation) {
  EXPECT_EQ(lk::standardize_name("  Smith-O'Brien "), "SMITH OBRIEN");
  EXPECT_EQ(lk::standardize_name("mary"), "MARY");
  EXPECT_EQ(lk::standardize_name("VAN  DER   BERG"), "VAN DER BERG");
  EXPECT_EQ(lk::standardize_name(""), "");
  EXPECT_EQ(lk::standardize_name("123"), "");
}

TEST(StandardizeAddress, SuffixAndDirectionalCanonicalization) {
  EXPECT_EQ(lk::standardize_address("1801 North Broad Street"),
            "1801 N BROAD ST");
  EXPECT_EQ(lk::standardize_address("42 west ELM Avenue"), "42 W ELM AVE");
  EXPECT_EQ(lk::standardize_address("7 Oak Blvd."), "7 OAK BLVD");
  // Already-standard input is a fixed point.
  EXPECT_EQ(lk::standardize_address("1801 N BROAD ST"), "1801 N BROAD ST");
}

TEST(StandardizeAddress, SuffixOnlyRewrittenInFinalPosition) {
  // "STREET" as a street *name* (not the last word) must survive.
  EXPECT_EQ(lk::standardize_address("12 STREET ROAD"), "12 STREET RD");
}

TEST(StandardizePhone, FormatsAndCountryCode) {
  EXPECT_EQ(lk::standardize_phone("(215) 555-1212"), "2155551212");
  EXPECT_EQ(lk::standardize_phone("+1 215 555 1212"), "2155551212");
  EXPECT_EQ(lk::standardize_phone("215.555.1212"), "2155551212");
  EXPECT_EQ(lk::standardize_phone("2155551212"), "2155551212");
  // A bare leading-1 ten-digit number is NOT a country code.
  EXPECT_EQ(lk::standardize_phone("1155551212"), "1155551212");
}

TEST(StandardizeSsn, DigitsOnly) {
  EXPECT_EQ(lk::standardize_ssn("123-12-1234"), "123121234");
  EXPECT_EQ(lk::standardize_ssn("123 12 1234"), "123121234");
}

TEST(StandardizeBirthdate, AcceptedSpellings) {
  EXPECT_EQ(lk::standardize_birthdate("02/25/1912"), "02251912");
  EXPECT_EQ(lk::standardize_birthdate("2/5/1980"), "02051980");
  EXPECT_EQ(lk::standardize_birthdate("1980-02-05"), "02051980");
  EXPECT_EQ(lk::standardize_birthdate("02251912"), "02251912");
  EXPECT_EQ(lk::standardize_birthdate("19800205"), "02051980");  // YYYYMMDD
}

TEST(StandardizeBirthdate, RejectsGarbage) {
  EXPECT_FALSE(lk::standardize_birthdate("").has_value());
  EXPECT_FALSE(lk::standardize_birthdate("not a date").has_value());
  EXPECT_FALSE(lk::standardize_birthdate("13/45/1990").has_value());
  EXPECT_FALSE(lk::standardize_birthdate("02/25").has_value());
  EXPECT_FALSE(lk::standardize_birthdate("1/2/3/4").has_value());
}

TEST(StandardizeBirthdate, OutputValidatesWhenInWindow) {
  const auto date = lk::standardize_birthdate("06/15/1975");
  ASSERT_TRUE(date.has_value());
  EXPECT_TRUE(fbf::datagen::is_valid_birthdate(*date));
}

TEST(StandardizeGender, Spellings) {
  EXPECT_EQ(lk::standardize_gender("male"), "M");
  EXPECT_EQ(lk::standardize_gender("F"), "F");
  EXPECT_EQ(lk::standardize_gender("Female"), "F");
  EXPECT_EQ(lk::standardize_gender("unknown"), "");
  EXPECT_EQ(lk::standardize_gender(""), "");
}

TEST(StandardizeRecord, EndToEnd) {
  lk::PersonRecord r;
  r.first_name = " mary ";
  r.last_name = "O'Brien";
  r.address = "1801 north broad street";
  r.phone = "+1 (215) 555-1212";
  r.gender = "female";
  r.ssn = "123-12-1234";
  r.birth_date = "2/25/1980";
  lk::standardize_record(r);
  EXPECT_EQ(r.first_name, "MARY");
  EXPECT_EQ(r.last_name, "OBRIEN");
  EXPECT_EQ(r.address, "1801 N BROAD ST");
  EXPECT_EQ(r.phone, "2155551212");
  EXPECT_EQ(r.gender, "F");
  EXPECT_EQ(r.ssn, "123121234");
  EXPECT_EQ(r.birth_date, "02251980");
}

TEST(StandardizeRecord, BadDateBlankedNotKept) {
  lk::PersonRecord r;
  r.birth_date = "99/99/9999";
  lk::standardize_record(r);
  EXPECT_TRUE(r.birth_date.empty());
}

TEST(StandardizeRecord, Idempotent) {
  lk::PersonRecord r;
  r.first_name = "Mary";
  r.last_name = "O'Brien";
  r.address = "1801 North Broad Street";
  r.phone = "(215) 555-1212";
  r.gender.assign(1, 'f');
  r.ssn = "123-12-1234";
  r.birth_date = "02/25/1980";
  lk::standardize_record(r);
  lk::PersonRecord once = r;
  lk::standardize_record(r);
  for (const auto field : lk::all_record_fields()) {
    EXPECT_EQ(r.field(field), once.field(field))
        << lk::record_field_name(field);
  }
}

}  // namespace

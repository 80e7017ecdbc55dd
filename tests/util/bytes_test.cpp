#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace hirep::util {
namespace {

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.str("hello");
  const Bytes payload{1, 2, 3};
  w.blob(payload);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  const Bytes expected{0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.bytes(), expected);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.u64(), TruncatedInput);
}

TEST(Bytes, TruncatedBlobThrows) {
  ByteWriter w;
  w.u32(100);  // claims a 100-byte blob follows, but nothing does
  ByteReader r(w.bytes());
  EXPECT_THROW(r.blob(), TruncatedInput);
}

TEST(Bytes, BlobViewAliasesTheInput) {
  ByteWriter w;
  w.blob(Bytes{4, 5, 6});
  w.u32(100);  // a second blob header with no body
  const Bytes buf = w.take();
  ByteReader r(buf);
  const auto view = r.blob_view();
  EXPECT_EQ(Bytes(view.begin(), view.end()), (Bytes{4, 5, 6}));
  EXPECT_EQ(view.data(), buf.data() + 4);  // no copy: points past the length
  EXPECT_THROW(r.blob_view(), TruncatedInput);
}

TEST(Bytes, EmptyBlobOk) {
  ByteWriter w;
  w.blob(Bytes{});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RawPassThrough) {
  ByteWriter w;
  const Bytes data{9, 8, 7};
  w.raw(data);
  EXPECT_EQ(w.bytes(), data);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.raw(3), data);
}

TEST(Bytes, TakeMovesBuffer) {
  ByteWriter w;
  w.u8(5);
  const Bytes taken = w.take();
  EXPECT_EQ(taken.size(), 1u);
}

TEST(CtEqual, EqualAndUnequal) {
  const Bytes a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4}, d{1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(Hex, RoundTrip) {
  const Bytes data{0x00, 0xff, 0xa5, 0x3c};
  const auto hex = to_hex(data);
  EXPECT_EQ(hex, "00ffa53c");
  EXPECT_EQ(from_hex(hex), data);
}

TEST(Hex, UpperCaseAccepted) {
  EXPECT_EQ(from_hex("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, InvalidInputThrows) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Hex, Empty) {
  EXPECT_EQ(to_hex(Bytes{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

}  // namespace
}  // namespace hirep::util

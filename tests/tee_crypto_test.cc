/**
 * @file
 * Crypto substrate tests against published vectors: SHA-256
 * (FIPS 180-4 examples), AES-128 (FIPS 197 appendix), and
 * HMAC-SHA256 (RFC 4231).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "tee/aes128.hh"
#include "tee/hmac.hh"
#include "tee/sha256.hh"

namespace snpu
{
namespace
{

std::vector<std::uint8_t>
bytes(const char *s)
{
    return std::vector<std::uint8_t>(s, s + std::strlen(s));
}

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(Sha256::toHex(Sha256::hash(nullptr, 0)),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    const auto msg = bytes("abc");
    EXPECT_EQ(Sha256::toHex(Sha256::hash(msg)),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    const auto msg = bytes(
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(Sha256::toHex(Sha256::hash(msg)),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    std::vector<std::uint8_t> chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk.data(), chunk.size());
    EXPECT_EQ(Sha256::toHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

/**
 * Padding-boundary vectors: lengths on both sides of the 56-byte
 * mark where the length field stops fitting in the final block, and
 * at the one- and two-block edges. The message is "abc...z"
 * repeated; the digests were computed with Python's hashlib.
 */
TEST(Sha256, PaddingBoundaryLengths)
{
    const struct
    {
        std::size_t len;
        const char *hex;
    } vectors[] = {
        {55, "595615dbe4f0f407ae397d08b4c2cb87"
             "0cb9b0e11937416f950c5160acf9c005"},
        {56, "784f623b787495078e93ff28a25b581d"
             "f0584055a7e71d8cd90c454716b92f51"},
        {63, "5ca3e1ef5207490eac01a795e5cc94d5"
             "9582a5118bf9534665c8668d87aa647c"},
        {64, "2fcd5a0d60e4c941381fcc4e00a4bf8b"
             "e422c3ddfafb93c809e8d1e2bfffae8e"},
        {119, "faef67da856d6fd9c8d12f9ed0a4fefd"
              "3cf0ce085ab43e2907418d457e3c354b"},
        {120, "c9512b08619c19fbb503c7da6b46ef20"
              "301e5f7a7a5f43989182398536f5c5c8"},
    };
    for (const auto &v : vectors) {
        std::vector<std::uint8_t> msg(v.len);
        for (std::size_t i = 0; i < msg.size(); ++i)
            msg[i] = static_cast<std::uint8_t>('a' + i % 26);
        EXPECT_EQ(Sha256::toHex(Sha256::hash(msg)), v.hex)
            << v.len << " bytes";
    }
}

TEST(Sha256, IncrementalMatchesOneShotAcrossRandomSplits)
{
    Rng rng(5);
    std::vector<std::uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const Digest expected = Sha256::hash(data);

    for (int trial = 0; trial < 20; ++trial) {
        Sha256 ctx;
        std::size_t off = 0;
        while (off < data.size()) {
            const std::size_t n = std::min<std::size_t>(
                1 + rng.below(200), data.size() - off);
            ctx.update(data.data() + off, n);
            off += n;
        }
        EXPECT_TRUE(digestEqual(ctx.finish(), expected));
    }
}

TEST(Sha256, FinishTwicePanics)
{
    Sha256 ctx;
    ctx.finish();
    EXPECT_THROW(ctx.finish(), PanicError);
}

TEST(Aes128, Fips197Vector)
{
    // FIPS 197 Appendix C.1.
    AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                  0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    std::uint8_t block[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                              0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                              0xcc, 0xdd, 0xee, 0xff};
    const std::uint8_t expected[16] = {
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
        0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};

    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(std::memcmp(block, expected, 16), 0);

    aes.decryptBlock(block);
    const std::uint8_t plain[16] = {0x00, 0x11, 0x22, 0x33, 0x44,
                                    0x55, 0x66, 0x77, 0x88, 0x99,
                                    0xaa, 0xbb, 0xcc, 0xdd, 0xee,
                                    0xff};
    EXPECT_EQ(std::memcmp(block, plain, 16), 0);
}

TEST(Aes128, Nist800_38aCtrVector)
{
    // NIST SP 800-38A F.5.1 (AES-128 CTR), first block.
    AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                  0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    AesBlock iv = {0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7,
                   0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff};
    const std::vector<std::uint8_t> plaintext = {
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
        0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
    const std::vector<std::uint8_t> expected = {
        0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26,
        0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d, 0xb6, 0xce};

    Aes128 aes(key);
    EXPECT_EQ(aes.ctr(iv, plaintext), expected);
}

TEST(Aes128, CtrRoundTripArbitraryLength)
{
    AesKey key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i * 11);
    AesBlock iv{};
    iv[15] = 1;

    Rng rng(9);
    std::vector<std::uint8_t> msg(1000);
    for (auto &b : msg)
        b = static_cast<std::uint8_t>(rng.next());

    Aes128 aes(key);
    const auto ct = aes.ctr(iv, msg);
    EXPECT_NE(ct, msg);
    EXPECT_EQ(aes.ctr(iv, ct), msg);
}

TEST(Aes128, CtrCounterIncrementCrossesByteBoundary)
{
    AesKey key{};
    AesBlock iv{};
    std::fill(iv.begin(), iv.end(), 0xff); // forces full carry
    Aes128 aes(key);
    std::vector<std::uint8_t> msg(48, 0);
    const auto ct = aes.ctr(iv, msg);
    // Blocks must differ (distinct counters).
    EXPECT_NE(std::memcmp(ct.data(), ct.data() + 16, 16), 0);
    EXPECT_NE(std::memcmp(ct.data() + 16, ct.data() + 32, 16), 0);
}

TEST(Hmac, Rfc4231Case1)
{
    std::vector<std::uint8_t> key(20, 0x0b);
    const auto data = bytes("Hi There");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    const auto key = bytes("Jefe");
    const auto data = bytes("what do ya want for nothing?");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst)
{
    // RFC 4231 case 6: 131-byte key.
    std::vector<std::uint8_t> key(131, 0xaa);
    const auto data =
        bytes("Test Using Larger Than Block-Size Key - Hash Key First");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, EmptyKeyAndEmptyMessage)
{
    // RFC 2104 defines the empty key as K0 = all zeros; the empty
    // message contributes nothing to the inner hash. Regression for
    // the empty-vector data() UB: both operands empty must still
    // produce the published digest, not touch a null pointer.
    const std::vector<std::uint8_t> empty;
    EXPECT_EQ(Sha256::toHex(hmacSha256(empty, empty)),
              "b613679a0814d9ec772f95d778c35fc5"
              "ff1697c493715653c6c712144292c5ad");
}

TEST(Hmac, EmptyKeyNonEmptyMessage)
{
    const std::vector<std::uint8_t> key;
    const auto data = bytes("Hi There");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "e48411262715c8370cd5e7bf8e82bef5"
              "3bd53712d007f3429351843b77c7bb9b");
}

TEST(Hmac, NonEmptyKeyEmptyMessage)
{
    const auto key = bytes("Jefe");
    const std::vector<std::uint8_t> data;
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "923598ca6d64af2a5dba79dcd021a8a0"
              "fe5c5f557519adaaf0ad532d4506dd30");
}

TEST(Hmac, DigestEqualLastByteSingleBit)
{
    // The XOR fold must reach the final byte: a digest differing
    // from another in exactly one bit of byte 31 is unequal, for
    // every bit position.
    Digest a{};
    for (int bit = 0; bit < 8; ++bit) {
        Digest b{};
        b[31] = static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(digestEqual(a, b)) << "bit " << bit;
        EXPECT_FALSE(digestEqual(b, a)) << "bit " << bit;
    }
}

TEST(Hmac, DigestEqualConstantTimeSemantics)
{
    Digest a{};
    Digest b{};
    EXPECT_TRUE(digestEqual(a, b));
    b[31] = 1;
    EXPECT_FALSE(digestEqual(a, b));
    b[31] = 0;
    b[0] = 1;
    EXPECT_FALSE(digestEqual(a, b));
}

} // namespace
} // namespace snpu

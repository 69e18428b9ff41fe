/**
 * @file
 * Wire-protocol codec tests: every message type must survive an
 * encode→decode round trip bit-exactly, and the decoder must reject
 * truncated, oversized, and garbage frames without crashing,
 * over-reading, or resynchronizing. Golden frames, written out by
 * hand, pin the byte layout itself: a codec changed symmetrically
 * on both sides would pass every round trip but not these.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/protocol.hh"

namespace srbenes
{
namespace net
{
namespace
{

std::vector<std::uint8_t>
encoded(const Message &m)
{
    std::vector<std::uint8_t> wire;
    encode(m, wire);
    return wire;
}

/** Decode exactly one message from @p wire, which it must fill. */
Message
decodeOne(const std::vector<std::uint8_t> &wire)
{
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    std::string error;
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::Ok) << error;
    EXPECT_EQ(dec.buffered(), 0u);
    return out;
}

Message
roundTrip(const Message &in)
{
    return decodeOne(encoded(in));
}

TEST(NetProtocol, SubmitRoundTripWithPayload)
{
    SubmitMsg m;
    m.id = 0xDEADBEEFCAFE1234ULL;
    m.tenant = 42;
    m.deadline_rel_ns = 5'000'000;
    m.dest = {3, 1, 0, 2};
    m.has_payload = true;
    m.payload = {10, 20, 30, 0xFFFFFFFFFFFFFFFFULL};

    const Message out = roundTrip(Message{m});
    ASSERT_TRUE(std::holds_alternative<SubmitMsg>(out));
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
}

TEST(NetProtocol, SubmitRoundTripControlPlane)
{
    SubmitMsg m;
    m.id = 7;
    m.dest = {1, 0};
    m.has_payload = false;

    const Message out = roundTrip(Message{m});
    ASSERT_TRUE(std::holds_alternative<SubmitMsg>(out));
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
}

TEST(NetProtocol, SubmitResultRoundTripEveryStatusAndTier)
{
    const Status statuses[] = {
        Status::Ok,        Status::NotInF,
        Status::FaultDetected, Status::DeadlineExceeded,
        Status::Shed,      Status::OverQuota,
        Status::BadRequest, Status::Draining,
    };
    const ServeTier tiers[] = {ServeTier::Primary,
                               ServeTier::Reroute,
                               ServeTier::TwoPass, ServeTier::Failed};
    for (Status s : statuses)
        for (ServeTier t : tiers) {
            SubmitResultMsg m;
            m.id = static_cast<std::uint64_t>(s) * 100 +
                   static_cast<std::uint64_t>(t);
            m.status = s;
            m.tier = t;
            m.server_ns = 123456789;
            if (s == Status::Ok)
                m.payload = {5, 6, 7};
            const Message out = roundTrip(Message{m});
            ASSERT_TRUE(
                std::holds_alternative<SubmitResultMsg>(out));
            EXPECT_EQ(std::get<SubmitResultMsg>(out), m);
        }
}

TEST(NetProtocol, HealthRoundTrip)
{
    const Message out = roundTrip(Message{HealthMsg{}});
    EXPECT_TRUE(std::holds_alternative<HealthMsg>(out));
}

TEST(NetProtocol, HealthResultRoundTrip)
{
    HealthResultMsg m;
    m.state = ServeState::Draining;
    m.n = 10;
    m.workers = 4;
    m.uptime_ns = 99999;
    m.served = 123;
    m.inflight = 7;
    const Message out = roundTrip(Message{m});
    ASSERT_TRUE(std::holds_alternative<HealthResultMsg>(out));
    EXPECT_EQ(std::get<HealthResultMsg>(out), m);
}

TEST(NetProtocol, StatsRoundTripBothFormats)
{
    for (StatsFormat f :
         {StatsFormat::PrometheusText, StatsFormat::Json}) {
        StatsMsg m;
        m.format = f;
        const Message out = roundTrip(Message{m});
        ASSERT_TRUE(std::holds_alternative<StatsMsg>(out));
        EXPECT_EQ(std::get<StatsMsg>(out), m);

        StatsResultMsg r;
        r.format = f;
        // Embedded NUL: the body is length-delimited, not C-string.
        r.body = std::string("srbd_submits_total 12\n\0x", 24);
        const Message rout = roundTrip(Message{r});
        ASSERT_TRUE(std::holds_alternative<StatsResultMsg>(rout));
        EXPECT_EQ(std::get<StatsResultMsg>(rout), r);
    }
}

TEST(NetProtocol, MessageTypeTags)
{
    EXPECT_EQ(messageType(Message{SubmitMsg{}}), MsgType::Submit);
    EXPECT_EQ(messageType(Message{SubmitResultMsg{}}),
              MsgType::SubmitResult);
    EXPECT_EQ(messageType(Message{HealthMsg{}}), MsgType::Health);
    EXPECT_EQ(messageType(Message{HealthResultMsg{}}),
              MsgType::HealthResult);
    EXPECT_EQ(messageType(Message{StatsMsg{}}), MsgType::Stats);
    EXPECT_EQ(messageType(Message{StatsResultMsg{}}),
              MsgType::StatsResult);
}

TEST(NetProtocol, StatusFromErrcIsVerbatim)
{
    EXPECT_EQ(statusFromErrc(RouteErrc::Ok), Status::Ok);
    EXPECT_EQ(statusFromErrc(RouteErrc::NotInF), Status::NotInF);
    EXPECT_EQ(statusFromErrc(RouteErrc::FaultDetected),
              Status::FaultDetected);
    EXPECT_EQ(statusFromErrc(RouteErrc::DeadlineExceeded),
              Status::DeadlineExceeded);
    EXPECT_EQ(statusFromErrc(RouteErrc::Shed), Status::Shed);
}

TEST(NetProtocol, ByteAtATimeFeedNeedsMoreUntilComplete)
{
    SubmitMsg m;
    m.id = 9;
    m.dest = {0, 1, 2, 3};
    m.has_payload = true;
    m.payload = {4, 5, 6, 7};
    std::vector<std::uint8_t> wire;
    encode(Message{m}, wire);

    Decoder dec;
    Message out;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        dec.feed(&wire[i], 1);
        EXPECT_EQ(dec.next(out), DecodeStatus::NeedMore)
            << "completed early at byte " << i;
    }
    dec.feed(&wire[wire.size() - 1], 1);
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
}

TEST(NetProtocol, MultipleFramesInOneFeed)
{
    std::vector<std::uint8_t> wire;
    encode(Message{HealthMsg{}}, wire);
    StatsMsg s;
    s.format = StatsFormat::Json;
    encode(Message{s}, wire);
    SubmitMsg m;
    m.dest = {1, 0};
    encode(Message{m}, wire);

    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_TRUE(std::holds_alternative<HealthMsg>(out));
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_EQ(std::get<StatsMsg>(out), s);
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
    EXPECT_EQ(dec.next(out), DecodeStatus::NeedMore);
}

TEST(NetProtocol, RejectsUnknownType)
{
    // length=1, type=0x7F: well-framed, meaningless.
    const std::uint8_t wire[] = {1, 0, 0, 0, 0x7F};
    Decoder dec;
    dec.feed(wire, sizeof(wire));
    Message out;
    std::string error;
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::Error);
    EXPECT_FALSE(error.empty());
}

TEST(NetProtocol, RejectsEmptyBody)
{
    const std::uint8_t wire[] = {0, 0, 0, 0};
    Decoder dec;
    dec.feed(wire, sizeof(wire));
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsOversizedFrameBeforeBufferingIt)
{
    // Claims a 2 MiB body against a 1 KiB cap; the decoder must
    // error from the header alone.
    Decoder dec(1024);
    const std::uint32_t huge = 2u << 20;
    const std::uint8_t wire[] = {
        static_cast<std::uint8_t>(huge & 0xFF),
        static_cast<std::uint8_t>((huge >> 8) & 0xFF),
        static_cast<std::uint8_t>((huge >> 16) & 0xFF),
        static_cast<std::uint8_t>((huge >> 24) & 0xFF),
    };
    dec.feed(wire, sizeof(wire));
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsHostileLineCount)
{
    // A Submit whose num_lines claims far more dest words than the
    // body carries: exact-length validation must refuse it instead
    // of allocating or over-reading.
    std::vector<std::uint8_t> body;
    body.push_back(static_cast<std::uint8_t>(MsgType::Submit));
    for (int i = 0; i < 24; ++i)
        body.push_back(0); // id, tenant, deadline
    const std::uint32_t lines = 0xFFFFFF;
    for (int i = 0; i < 4; ++i)
        body.push_back(
            static_cast<std::uint8_t>((lines >> (8 * i)) & 0xFF));
    body.push_back(0); // has_payload = false, but no dest words

    std::vector<std::uint8_t> wire;
    const std::uint32_t len =
        static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i)
        wire.push_back(
            static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
    wire.insert(wire.end(), body.begin(), body.end());

    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsTrailingGarbageInBody)
{
    std::vector<std::uint8_t> wire;
    encode(Message{HealthMsg{}}, wire);
    // Re-frame the 1-byte Health body with 3 junk bytes appended.
    wire[0] = 4;
    wire.push_back(0xAA);
    wire.push_back(0xBB);
    wire.push_back(0xCC);
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsTruncatedBody)
{
    std::vector<std::uint8_t> wire;
    HealthResultMsg m;
    m.n = 5;
    encode(Message{m}, wire);
    // Shrink the declared length so the body cuts off mid-field.
    wire[0] = 6;
    Decoder dec;
    dec.feed(wire.data(), 4 + 6);
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, PoisonedDecoderStaysPoisoned)
{
    const std::uint8_t bad[] = {1, 0, 0, 0, 0x7F};
    Decoder dec;
    dec.feed(bad, sizeof(bad));
    Message out;
    ASSERT_EQ(dec.next(out), DecodeStatus::Error);

    // A perfectly valid frame after the error must not resuscitate
    // the stream: there is no resync in a length-prefixed protocol.
    std::vector<std::uint8_t> good;
    encode(Message{HealthMsg{}}, good);
    dec.feed(good.data(), good.size());
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

// ------------------------------------------------------ golden frames

/** A Submit with a payload: two lines, every field byte-distinct. */
const std::vector<std::uint8_t> kGoldenSubmit = {
    0x36, 0x00, 0x00, 0x00,                         // body length 54
    0x01,                                           // type Submit
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // id
    0xA8, 0xA7, 0xA6, 0xA5, 0xA4, 0xA3, 0xA2, 0xA1, // tenant
    0xEF, 0xBE, 0xAD, 0xDE, 0x00, 0x00, 0x00, 0x00, // deadline_rel_ns
    0x02, 0x00, 0x00, 0x00,                         // num_lines 2
    0x01,                                           // has_payload
    0x04, 0x03, 0x02, 0x01,                         // dest[0]
    0x01, 0x00, 0x00, 0x80,                         // dest[1]
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // payload[0]
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // payload[1]
};

SubmitMsg
goldenSubmit()
{
    SubmitMsg m;
    m.id = 0x1122334455667788ULL;
    m.tenant = 0xA1A2A3A4A5A6A7A8ULL;
    m.deadline_rel_ns = 0xDEADBEEFULL;
    m.dest = {0x01020304, 0x80000001};
    m.has_payload = true;
    m.payload = {0x0102030405060708ULL, 0x8000000000000001ULL};
    return m;
}

/** A control-plane Submit: dest only, no payload. */
const std::vector<std::uint8_t> kGoldenControlSubmit = {
    0x26, 0x00, 0x00, 0x00,                         // body length 38
    0x01,                                           // type Submit
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tenant
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // deadline_rel_ns
    0x02, 0x00, 0x00, 0x00,                         // num_lines 2
    0x00,                                           // no payload
    0x04, 0x03, 0x02, 0x01,                         // dest[0]
    0x0D, 0x0C, 0x0B, 0x0A,                         // dest[1]
};

SubmitMsg
goldenControlSubmit()
{
    SubmitMsg m;
    m.id = 0x0102030405060708ULL;
    m.tenant = 2;
    m.dest = {0x01020304, 0x0A0B0C0D};
    return m;
}

/** A SubmitResult carrying a two-word payload. */
const std::vector<std::uint8_t> kGoldenSubmitResult = {
    0x27, 0x00, 0x00, 0x00,                         // body length 39
    0x02,                                           // type SubmitResult
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id
    0x00,                                           // status Ok
    0x02,                                           // tier TwoPass
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // server_ns
    0x02, 0x00, 0x00, 0x00,                         // payload_count 2
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // payload[0]
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // payload[1]
};

SubmitResultMsg
goldenSubmitResult()
{
    SubmitResultMsg m;
    m.id = 0x0102030405060708ULL;
    m.status = Status::Ok;
    m.tier = ServeTier::TwoPass;
    m.server_ns = 0x1122334455667788ULL;
    m.payload = {0x0102030405060708ULL, 0x8000000000000001ULL};
    return m;
}

DecodeStatus
decodeStatus(const std::vector<std::uint8_t> &wire)
{
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    return dec.next(out);
}

/** Overwrite the little-endian u32 at body offset @p at. */
void
patchU32(std::vector<std::uint8_t> &wire, std::size_t at,
         std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        wire[4 + at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Set the length prefix to the body actually present. */
void
reframe(std::vector<std::uint8_t> &wire)
{
    const std::uint32_t len =
        static_cast<std::uint32_t>(wire.size() - 4);
    for (int i = 0; i < 4; ++i)
        wire[i] = static_cast<std::uint8_t>(len >> (8 * i));
}

// Body offsets of the count fields the bulk reads trust.
constexpr std::size_t kSubmitLinesAt = 1 + 3 * 8;
constexpr std::size_t kSubmitHasPayloadAt = kSubmitLinesAt + 4;
constexpr std::size_t kResultCountAt = 1 + 8 + 1 + 1 + 8;

TEST(NetProtocol, GoldenSubmitWithPayload)
{
    EXPECT_EQ(encoded(Message{goldenSubmit()}), kGoldenSubmit);
    const Message out = decodeOne(kGoldenSubmit);
    ASSERT_TRUE(std::holds_alternative<SubmitMsg>(out));
    EXPECT_EQ(std::get<SubmitMsg>(out), goldenSubmit());
}

TEST(NetProtocol, GoldenControlPlaneSubmit)
{
    EXPECT_EQ(encoded(Message{goldenControlSubmit()}),
              kGoldenControlSubmit);
    const Message out = decodeOne(kGoldenControlSubmit);
    ASSERT_TRUE(std::holds_alternative<SubmitMsg>(out));
    EXPECT_EQ(std::get<SubmitMsg>(out), goldenControlSubmit());
}

TEST(NetProtocol, GoldenSubmitResultWithPayload)
{
    EXPECT_EQ(encoded(Message{goldenSubmitResult()}),
              kGoldenSubmitResult);
    const Message out = decodeOne(kGoldenSubmitResult);
    ASSERT_TRUE(std::holds_alternative<SubmitResultMsg>(out));
    EXPECT_EQ(std::get<SubmitResultMsg>(out), goldenSubmitResult());
}

TEST(NetProtocol, RejectsSubmitLineCountOffByOne)
{
    for (std::uint32_t lines : {1u, 3u}) {
        std::vector<std::uint8_t> wire = kGoldenSubmit;
        patchU32(wire, kSubmitLinesAt, lines);
        EXPECT_EQ(decodeStatus(wire), DecodeStatus::Error)
            << "num_lines " << lines << " against a 2-line body";
    }
    for (std::uint32_t lines : {1u, 3u}) {
        std::vector<std::uint8_t> wire = kGoldenControlSubmit;
        patchU32(wire, kSubmitLinesAt, lines);
        EXPECT_EQ(decodeStatus(wire), DecodeStatus::Error)
            << "num_lines " << lines << " against a 2-line dest";
    }
}

TEST(NetProtocol, RejectsPayloadFlagOnDestOnlyBody)
{
    std::vector<std::uint8_t> wire = kGoldenControlSubmit;
    wire[4 + kSubmitHasPayloadAt] = 1;
    EXPECT_EQ(decodeStatus(wire), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsSubmitResultCountOffByOne)
{
    for (std::uint32_t count : {1u, 3u}) {
        std::vector<std::uint8_t> wire = kGoldenSubmitResult;
        patchU32(wire, kResultCountAt, count);
        EXPECT_EQ(decodeStatus(wire), DecodeStatus::Error)
            << "payload_count " << count << " against 2 words";
    }
}

TEST(NetProtocol, RejectsLineCountWhoseByteSizeWrapsAt32Bits)
{
    // 2^30 + 1 lines: 12 bytes a line is 3 * 2^32 + 12 and 4 bytes a
    // line is 2^32 + 4, so a length check done in 32 bits would see
    // exactly the one line these bodies carry.
    constexpr std::uint32_t kWrapLines = (1u << 30) + 1;
    std::vector<std::uint8_t> with_payload = kGoldenSubmit;
    patchU32(with_payload, kSubmitLinesAt, kWrapLines);
    with_payload.resize(with_payload.size() - 12); // one line left
    reframe(with_payload);
    EXPECT_EQ(decodeStatus(with_payload), DecodeStatus::Error);

    std::vector<std::uint8_t> dest_only = kGoldenControlSubmit;
    patchU32(dest_only, kSubmitLinesAt, kWrapLines);
    dest_only.resize(dest_only.size() - 4); // one dest word left
    reframe(dest_only);
    EXPECT_EQ(decodeStatus(dest_only), DecodeStatus::Error);
}

TEST(NetProtocol, GarbageFuzzNeverCrashes)
{
    // Deterministic LCG bytes; every prefix either parses, needs
    // more, or errors — it must never crash or hang.
    std::uint64_t state = 0x2545F4914F6CDD1DULL;
    for (int trial = 0; trial < 64; ++trial) {
        Decoder dec(4096);
        Message out;
        for (int i = 0; i < 512; ++i) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::uint8_t b =
                static_cast<std::uint8_t>(state >> 56);
            dec.feed(&b, 1);
            const DecodeStatus st = dec.next(out);
            if (st == DecodeStatus::Error)
                break;
        }
    }
    SUCCEED();
}

} // namespace
} // namespace net
} // namespace srbenes

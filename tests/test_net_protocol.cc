/**
 * @file
 * Wire-protocol codec tests: every message type must survive an
 * encode→decode round trip bit-exactly, and the decoder must reject
 * truncated, oversized, and garbage frames without crashing,
 * over-reading, or resynchronizing. Golden frames, written out by
 * hand, pin the byte layout itself: a codec changed symmetrically
 * on both sides would pass every round trip but not these. The
 * in-place Submit view is checked against the owning decode and an
 * independent reading of the spec, on hostile and awkward frames:
 * random and mutated buffers, every byte offset mod 8, a frame split
 * at every byte, miscounted and truncated bodies, and the largest
 * frame srbd serves.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/router.hh"
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

// ------------------------------------------------- the in-place view

/** A Submit frame's verdict and fields, read straight from the
 *  header comment's layout: the reference the Decoder must agree
 *  with. */
struct RefSubmit
{
    DecodeStatus status = DecodeStatus::NeedMore;
    SubmitMsg msg;
};

std::uint64_t
leAt(const std::vector<std::uint8_t> &b, std::size_t at, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t{b[at + i]} << (8 * i);
    return v;
}

/** The first frame of @p wire, when its type byte says Submit. */
RefSubmit
referenceSubmit(const std::vector<std::uint8_t> &wire,
                std::size_t max_frame = kDefaultMaxFrame)
{
    RefSubmit r;
    if (wire.size() < 4)
        return r;
    const std::uint64_t len = leAt(wire, 0, 4);
    if (len < 1 || len > max_frame) {
        r.status = DecodeStatus::Error;
        return r;
    }
    if (wire.size() < 4 + len)
        return r;
    r.status = DecodeStatus::Error;
    if (len < 1 + 24 + 4 + 1)
        return r;
    const std::uint64_t lines = leAt(wire, 4 + 25, 4);
    const unsigned has = wire[4 + 29];
    if (has > 1 || len != 30 + lines * (has ? 12 : 4))
        return r;
    r.msg.id = leAt(wire, 5, 8);
    r.msg.tenant = leAt(wire, 13, 8);
    r.msg.deadline_rel_ns = leAt(wire, 21, 8);
    r.msg.has_payload = has == 1;
    for (std::uint64_t i = 0; i < lines; ++i)
        r.msg.dest.push_back(leAt(wire, 34 + 4 * i, 4));
    if (has)
        for (std::uint64_t i = 0; i < lines; ++i)
            r.msg.payload.push_back(leAt(wire, 34 + 4 * lines + 8 * i, 8));
    r.status = DecodeStatus::Ok;
    return r;
}

/** The view's fields, read through its lane accessors. */
SubmitMsg
fieldsOf(const SubmitView &v)
{
    SubmitMsg m;
    m.id = v.id;
    m.tenant = v.tenant;
    m.deadline_rel_ns = v.deadline_rel_ns;
    m.has_payload = v.has_payload;
    for (std::uint32_t i = 0; i < v.num_lines; ++i)
        m.dest.push_back(v.tag(i));
    v.copyPayload(m.payload);
    return m;
}

/**
 * Decode @p wire's first frame both ways, each through a decoder fed
 * the exact buffer (one feed, so an overread leaves the allocation),
 * and check they agree with each other and, for a Submit, with the
 * reference; returns the shared verdict.
 */
DecodeStatus
expectFormsAgree(const std::vector<std::uint8_t> &wire,
                 std::size_t max_frame = kDefaultMaxFrame)
{
    Decoder as_view(max_frame);
    Decoder as_message(max_frame);
    as_view.feed(wire.data(), wire.size());
    as_message.feed(wire.data(), wire.size());
    Frame frame;
    Message msg;
    const DecodeStatus v = as_view.next(frame);
    const DecodeStatus m = as_message.next(msg);
    EXPECT_EQ(v, m);
    EXPECT_EQ(as_view.buffered(), as_message.buffered());
    const bool is_submit =
        wire.size() > 4 && wire[4] == static_cast<std::uint8_t>(MsgType::Submit);
    if (is_submit) {
        const RefSubmit ref = referenceSubmit(wire, max_frame);
        EXPECT_EQ(v, ref.status);
        if (v == DecodeStatus::Ok && ref.status == DecodeStatus::Ok) {
            EXPECT_EQ(frame.type, MsgType::Submit);
            EXPECT_EQ(fieldsOf(frame.submit), ref.msg);
            EXPECT_EQ(frame.submit.toMessage(), ref.msg);
            EXPECT_EQ(std::get<SubmitMsg>(msg), ref.msg);
        }
    } else if (v == DecodeStatus::Ok && m == DecodeStatus::Ok) {
        EXPECT_EQ(frame.message, msg);
    }
    return v;
}

/** A Submit of @p lines lines, @p payload or not, with fields that
 *  tell the lanes apart. */
SubmitMsg
sampleSubmit(std::uint32_t lines, bool payload, std::uint64_t salt = 0)
{
    SubmitMsg m;
    m.id = 0x0101010101010101ULL * (salt + 1);
    m.tenant = 0x7766554433221100ULL ^ salt;
    m.deadline_rel_ns = 12345 + salt;
    for (std::uint32_t i = 0; i < lines; ++i)
        m.dest.push_back((i * 7 + salt) % (lines == 0 ? 1 : lines) |
                         (i % 3 == 0 ? 0x80000000u : 0));
    m.has_payload = payload;
    if (payload)
        for (std::uint32_t i = 0; i < lines; ++i)
            m.payload.push_back(0x8000000000000001ULL * (i + 1) ^ salt);
    return m;
}

TEST(NetProtocolView, ViewAndOwningDecodeAgreeOnHostileBuffers)
{
    // Differential fuzz: every buffer — random bytes, and valid
    // frames of every type with bytes flipped, counts rewritten,
    // has_payload set to 0..3, bodies cut or extended — gets the same
    // verdict from the view and from next(Message &), identical
    // fields when both accept it, and for a Submit the verdict and
    // fields of the reference reading.
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    auto rnd = [&] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    std::vector<std::vector<std::uint8_t>> seeds = {
        encoded(Message{sampleSubmit(4, true)}),
        encoded(Message{sampleSubmit(4, false)}),
        encoded(Message{sampleSubmit(0, true)}),
        encoded(Message{sampleSubmit(9, true, 3)}),
        encoded(Message{goldenSubmitResult()}),
        encoded(Message{HealthMsg{}}),
        encoded(Message{StatsMsg{StatsFormat::Json}}),
    };
    std::size_t accepted = 0, refused = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::vector<std::uint8_t> wire;
        if (trial % 4 == 0) {
            wire.resize(1 + rnd() % 80);
            for (auto &b : wire)
                b = static_cast<std::uint8_t>(rnd());
            if (wire.size() > 4) {
                // Keep the length plausible often enough to reach
                // the body checks.
                if (rnd() % 2)
                    reframe(wire);
                if (rnd() % 2)
                    wire[4] = static_cast<std::uint8_t>(MsgType::Submit);
            }
        } else {
            wire = seeds[rnd() % seeds.size()];
            switch (rnd() % 6) {
              case 0:
                wire[rnd() % wire.size()] ^=
                    static_cast<std::uint8_t>(1u << (rnd() % 8));
                break;
              case 1:
                if (wire[4] == static_cast<std::uint8_t>(MsgType::Submit))
                    patchU32(wire, kSubmitLinesAt,
                             static_cast<std::uint32_t>(
                                 leAt(wire, 4 + kSubmitLinesAt, 4) +
                                 (rnd() % 3) - 1));
                break;
              case 2:
                if (wire.size() > 4 + kSubmitHasPayloadAt)
                    wire[4 + kSubmitHasPayloadAt] =
                        static_cast<std::uint8_t>(rnd() % 4);
                break;
              case 3:
                wire.resize(wire.size() - 1 - rnd() % (wire.size() - 1));
                if (rnd() % 2 && wire.size() > 4)
                    reframe(wire);
                break;
              case 4:
                for (std::uint64_t k = 1 + rnd() % 12; k > 0; --k)
                    wire.push_back(static_cast<std::uint8_t>(rnd()));
                if (rnd() % 2)
                    reframe(wire);
                break;
              default:
                break;
            }
        }
        const DecodeStatus st = expectFormsAgree(wire);
        accepted += st == DecodeStatus::Ok;
        refused += st == DecodeStatus::Error;
        if (HasFailure())
            FAIL() << "trial " << trial;
    }
    // Both verdicts must actually be exercised.
    EXPECT_GT(accepted, 500u);
    EXPECT_GT(refused, 500u);
}

TEST(NetProtocolView, SubmitParsesInPlaceAtEveryOffsetModEight)
{
    // A Submit read after a frame of 10 + k bytes starts k bytes past
    // an aligned buffer start, so its tag lanes sit at every offset
    // mod 8 in turn. The view's fields, lanes and hash are the same at
    // every offset, and its payload lanes gather from there.
    const SubmitMsg want = sampleSubmit(37, true, 5);
    std::vector<std::uint32_t> lanes(want.dest.begin(), want.dest.end());
    const Hash128 h = hashTags128(lanes.data(), lanes.size());
    for (std::size_t k = 0; k < 8; ++k) {
        StatsResultMsg pad;
        pad.body.assign(k + 8, 'x'); // a 10 + 8 + k byte frame
        std::vector<std::uint8_t> wire = encoded(Message{pad});
        encode(Message{want}, wire);
        Decoder dec;
        dec.feed(wire.data(), wire.size());
        Frame f;
        ASSERT_EQ(dec.next(f), DecodeStatus::Ok);
        ASSERT_EQ(f.type, MsgType::StatsResult);
        ASSERT_EQ(dec.next(f), DecodeStatus::Ok) << "k=" << k;
        ASSERT_EQ(f.type, MsgType::Submit);
        const auto at = reinterpret_cast<std::uintptr_t>(f.submit.tags);
        EXPECT_EQ((at - 34) % 8, (18 + k) % 8) << "k=" << k;
        EXPECT_EQ(fieldsOf(f.submit), want) << "k=" << k;
        EXPECT_EQ(hashTags128(f.submit.tags, f.submit.num_lines), h);
        std::vector<Word> out(want.payload.size());
        std::vector<std::uint16_t> identity(want.payload.size());
        for (std::size_t i = 0; i < identity.size(); ++i)
            identity[i] = static_cast<std::uint16_t>(identity.size() - 1 - i);
        activeKernels().gather(out.data(), f.submit.payload,
                               identity.data(), out.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], want.payload[out.size() - 1 - i]);
        EXPECT_EQ(dec.buffered(), 0u);
    }
}

TEST(NetProtocolView, FrameSplitBetweenTwoFeedsAtEveryByte)
{
    // For n <= 4, a Submit cut into two feeds at every byte boundary
    // needs more until its last byte arrives, then parses whole, in
    // both forms.
    for (unsigned n = 0; n <= 4; ++n) {
        for (bool payload : {false, true}) {
            const SubmitMsg want = sampleSubmit(1u << n, payload, n);
            const std::vector<std::uint8_t> wire = encoded(Message{want});
            for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
                Decoder a, b;
                a.feed(wire.data(), cut);
                b.feed(wire.data(), cut);
                Frame f;
                Message m;
                if (cut < wire.size()) {
                    ASSERT_EQ(a.next(f), DecodeStatus::NeedMore)
                        << "n=" << n << " cut=" << cut;
                    ASSERT_EQ(b.next(m), DecodeStatus::NeedMore);
                }
                a.feed(wire.data() + cut, wire.size() - cut);
                b.feed(wire.data() + cut, wire.size() - cut);
                ASSERT_EQ(a.next(f), DecodeStatus::Ok)
                    << "n=" << n << " cut=" << cut;
                ASSERT_EQ(b.next(m), DecodeStatus::Ok);
                EXPECT_EQ(fieldsOf(f.submit), want);
                EXPECT_EQ(std::get<SubmitMsg>(m), want);
                EXPECT_EQ(a.buffered(), 0u);
            }
        }
    }
}

TEST(NetProtocolView, MiscountedAndTruncatedSubmitsAreRefused)
{
    // num_lines off by one either way, has_payload 0, 1 and 2 against
    // bodies of each shape, and bodies cut short under a reframed
    // length are errors in both forms; a frame whose declared body
    // has not all arrived needs more.
    for (bool payload : {false, true}) {
        const std::vector<std::uint8_t> good =
            encoded(Message{sampleSubmit(8, payload)});
        ASSERT_EQ(expectFormsAgree(good), DecodeStatus::Ok);
        for (std::uint32_t lines : {7u, 9u}) {
            std::vector<std::uint8_t> wire = good;
            patchU32(wire, kSubmitLinesAt, lines);
            EXPECT_EQ(expectFormsAgree(wire), DecodeStatus::Error)
                << "lines " << lines;
        }
        for (std::uint8_t has : {0, 1, 2}) {
            std::vector<std::uint8_t> wire = good;
            wire[4 + kSubmitHasPayloadAt] = has;
            EXPECT_EQ(expectFormsAgree(wire),
                      has == (payload ? 1 : 0) ? DecodeStatus::Ok
                                               : DecodeStatus::Error)
                << "has_payload " << int{has};
        }
        for (std::size_t cut : {1u, 3u, 4u, 8u, 12u, 30u}) {
            std::vector<std::uint8_t> wire = good;
            wire.resize(wire.size() - cut);
            EXPECT_EQ(expectFormsAgree(wire), DecodeStatus::NeedMore)
                << "cut " << cut;
            reframe(wire);
            EXPECT_EQ(expectFormsAgree(wire), DecodeStatus::Error)
                << "cut " << cut << " reframed";
        }
    }
}

TEST(NetProtocolView, LargestServedSubmitParsesInPlace)
{
    // n = 16: the largest fabric srbd serves under the 1 MiB cap, a
    // 786,462-byte body. It parses in place in both forms, its lanes
    // read back whole, and one byte less of cap refuses it.
    const SubmitMsg want = sampleSubmit(1u << 16, true, 16);
    const std::vector<std::uint8_t> wire = encoded(Message{want});
    ASSERT_EQ(wire.size(), 4u + 786462u);
    EXPECT_EQ(expectFormsAgree(wire), DecodeStatus::Ok);
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Frame f;
    ASSERT_EQ(dec.next(f), DecodeStatus::Ok);
    EXPECT_EQ(f.submit.num_lines, 1u << 16);
    EXPECT_EQ(f.submit.tag(65535), want.dest[65535]);
    std::vector<Word> payload;
    f.submit.copyPayload(payload);
    EXPECT_EQ(payload, want.payload);
    std::vector<std::uint32_t> lanes(want.dest.begin(), want.dest.end());
    EXPECT_EQ(hashTags128(f.submit.tags, 1u << 16),
              hashTags128(lanes.data(), lanes.size()));
    EXPECT_EQ(expectFormsAgree(wire, 786461), DecodeStatus::Error);
}

TEST(NetProtocolView, ReadsLandInTheBufferThroughPrepare)
{
    // prepare() hands out room that commit() publishes: frames
    // written there in uneven pieces decode like fed ones, and a
    // view survives its own consumption until the next prepare().
    const SubmitMsg a = sampleSubmit(16, true, 1);
    const SubmitMsg b = sampleSubmit(16, false, 2);
    std::vector<std::uint8_t> wire = encoded(Message{a});
    encode(Message{b}, wire);
    Decoder dec;
    for (std::size_t at = 0; at < wire.size();) {
        const std::size_t piece = std::min<std::size_t>(97, wire.size() - at);
        std::memcpy(dec.prepare(piece), wire.data() + at, piece);
        dec.commit(piece);
        at += piece;
    }
    Frame f;
    ASSERT_EQ(dec.next(f), DecodeStatus::Ok);
    EXPECT_EQ(fieldsOf(f.submit), a);
    ASSERT_EQ(dec.next(f), DecodeStatus::Ok);
    EXPECT_EQ(dec.buffered(), 0u);
    EXPECT_EQ(fieldsOf(f.submit), b);
    EXPECT_EQ(dec.next(f), DecodeStatus::NeedMore);
}

TEST(NetProtocolView, SubmitResultHeadIsTheEncodersHead)
{
    // srbd writes a hit's reply head in place and gathers the payload
    // after it; the frame is byte for byte what encode() makes.
    const SubmitResultMsg m = goldenSubmitResult();
    std::vector<std::uint8_t> frame(kSubmitResultHead + 8 * m.payload.size());
    putSubmitResultHead(frame.data(), m.id, m.status, m.tier, m.server_ns,
                        static_cast<std::uint32_t>(m.payload.size()));
    std::memcpy(frame.data() + kSubmitResultHead, m.payload.data(),
                8 * m.payload.size());
    EXPECT_EQ(frame, kGoldenSubmitResult);
    ByteBuffer buf;
    encode(Message{m}, buf);
    ASSERT_EQ(buf.size(), frame.size());
    EXPECT_EQ(std::memcmp(buf.data(), frame.data(), frame.size()), 0);
}

} // namespace
} // namespace net
} // namespace srbenes

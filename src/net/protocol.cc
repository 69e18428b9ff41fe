/**
 * @file
 * Frame codec implementation. Encoding sizes a frame first and
 * writes it in place, into a caller's vector or past the end of a
 * ByteBuffer (one allocation-free path for a connection's write
 * queue), and panics if the writer did not end exactly where the
 * size said; decoding is a bounds-checked cursor over the receive
 * buffer that treats ANY deviation — short body, long body, unknown
 * type, counts that disagree with the body length — as a poisoning
 * protocol error.
 *
 * Header fields go through putU*()/getU*() one at a time. A Submit's
 * arrays are not copied at all by the parser: its view points at
 * them in the buffer. The owning forms convert arrays in bulk (one
 * bounds check and one resize per array, then memcpy), which on a
 * little-endian host is a straight copy for the u64 arrays.
 */

#include "net/protocol.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace srbenes
{
namespace net
{
namespace
{

constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

// ------------------------------------------------------------ writer

std::uint8_t *
putU8(std::uint8_t *p, std::uint8_t v)
{
    *p = v;
    return p + 1;
}

std::uint8_t *
putU32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
    return p + 4;
}

std::uint8_t *
putU64(std::uint8_t *p, std::uint64_t v)
{
    p = putU32(p, static_cast<std::uint32_t>(v));
    return putU32(p, static_cast<std::uint32_t>(v >> 32));
}

/** Write @p words as little-endian u32s (dest tags; narrowed). */
std::uint8_t *
putU32s(std::uint8_t *p, const std::vector<Word> &words)
{
    for (Word w : words) {
        std::uint32_t v = static_cast<std::uint32_t>(w);
        if constexpr (!kLittleEndian)
            v = __builtin_bswap32(v);
        std::memcpy(p, &v, 4);
        p += 4;
    }
    return p;
}

/** Write @p words as little-endian u64s. */
std::uint8_t *
putU64s(std::uint8_t *p, const std::vector<Word> &words)
{
    if constexpr (kLittleEndian) {
        if (!words.empty())
            std::memcpy(p, words.data(), words.size() * 8);
        return p + words.size() * 8;
    } else {
        for (Word w : words) {
            const std::uint64_t v = __builtin_bswap64(w);
            std::memcpy(p, &v, 8);
            p += 8;
        }
        return p;
    }
}

/** Read @p count little-endian u64 lanes at @p p into @p out. */
void
getU64s(const std::uint8_t *p, std::size_t count, std::vector<Word> &out)
{
    out.resize(count);
    if constexpr (kLittleEndian) {
        if (count != 0)
            std::memcpy(out.data(), p, count * 8);
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            std::uint64_t v;
            std::memcpy(&v, p + i * 8, 8);
            out[i] = __builtin_bswap64(v);
        }
    }
}

// ------------------------------------------------------------ reader

/**
 * Bounds-checked cursor over one frame body. Every get*() checks
 * remaining length and flips `ok` false instead of reading past the
 * end; callers check ok once at the end (and that the body was
 * consumed exactly).
 */
struct Reader
{
    const std::uint8_t *p;
    std::size_t len;
    std::size_t pos = 0;
    bool ok = true;

    bool
    need(std::size_t k)
    {
        if (len - pos < k) {
            ok = false;
            return false;
        }
        return true;
    }

    std::uint8_t
    getU8()
    {
        if (!need(1))
            return 0;
        return p[pos++];
    }

    std::uint32_t
    getU32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = static_cast<std::uint32_t>(p[pos]) |
                          static_cast<std::uint32_t>(p[pos + 1]) << 8 |
                          static_cast<std::uint32_t>(p[pos + 2]) << 16 |
                          static_cast<std::uint32_t>(p[pos + 3]) << 24;
        pos += 4;
        return v;
    }

    std::uint64_t
    getU64()
    {
        const std::uint64_t lo = getU32();
        const std::uint64_t hi = getU32();
        return lo | hi << 32;
    }

    /** Read @p count little-endian u64s into @p out (one check). */
    void
    getU64s(std::size_t count, std::vector<Word> &out)
    {
        if (!need(count * 8))
            return;
        net::getU64s(p + pos, count, out);
        pos += count * 8;
    }

    bool consumed() const { return ok && pos == len; }
};

// --------------------------------------------------------- per-type

/** The frame's bytes, length prefix included. */
std::size_t
frameSize(const SubmitMsg &m)
{
    return 4 + 1 + 3 * 8 + 4 + 1 + m.dest.size() * 4 +
           (m.has_payload ? m.payload.size() * 8 : 0);
}

std::size_t
frameSize(const SubmitResultMsg &m)
{
    return kSubmitResultHead + m.payload.size() * 8;
}

std::size_t
frameSize(const HealthMsg &)
{
    return 4 + 1;
}

std::size_t
frameSize(const HealthResultMsg &)
{
    return 4 + 1 + 1 + 4 + 4 + 3 * 8;
}

std::size_t
frameSize(const StatsMsg &)
{
    return 4 + 1 + 1;
}

std::size_t
frameSize(const StatsResultMsg &m)
{
    return 4 + 1 + 1 + 4 + m.body.size();
}

/** The length prefix and type byte of a frame of @p size bytes. */
std::uint8_t *
putFrameHead(std::uint8_t *p, std::size_t size, MsgType type)
{
    p = putU32(p, static_cast<std::uint32_t>(size - 4));
    return putU8(p, static_cast<std::uint8_t>(type));
}

/*
 * Each writer returns the end of what it wrote, which encodeAt()
 * checks against frameSize(): a field added to one but not the other
 * would otherwise write past the bytes reserved for the frame.
 */

std::uint8_t *
encodeFrame(std::uint8_t *p, const SubmitMsg &m)
{
    p = putFrameHead(p, frameSize(m), MsgType::Submit);
    p = putU64(p, m.id);
    p = putU64(p, m.tenant);
    p = putU64(p, m.deadline_rel_ns);
    p = putU32(p, static_cast<std::uint32_t>(m.dest.size()));
    p = putU8(p, m.has_payload ? 1 : 0);
    p = putU32s(p, m.dest);
    return m.has_payload ? putU64s(p, m.payload) : p;
}

std::uint8_t *
encodeFrame(std::uint8_t *p, const SubmitResultMsg &m)
{
    putSubmitResultHead(p, m.id, m.status, m.tier, m.server_ns,
                        static_cast<std::uint32_t>(m.payload.size()));
    return putU64s(p + kSubmitResultHead, m.payload);
}

std::uint8_t *
encodeFrame(std::uint8_t *p, const HealthMsg &m)
{
    return putFrameHead(p, frameSize(m), MsgType::Health);
}

std::uint8_t *
encodeFrame(std::uint8_t *p, const HealthResultMsg &m)
{
    p = putFrameHead(p, frameSize(m), MsgType::HealthResult);
    p = putU8(p, static_cast<std::uint8_t>(m.state));
    p = putU32(p, m.n);
    p = putU32(p, m.workers);
    p = putU64(p, m.uptime_ns);
    p = putU64(p, m.served);
    return putU64(p, m.inflight);
}

std::uint8_t *
encodeFrame(std::uint8_t *p, const StatsMsg &m)
{
    p = putFrameHead(p, frameSize(m), MsgType::Stats);
    return putU8(p, static_cast<std::uint8_t>(m.format));
}

std::uint8_t *
encodeFrame(std::uint8_t *p, const StatsResultMsg &m)
{
    p = putFrameHead(p, frameSize(m), MsgType::StatsResult);
    p = putU8(p, static_cast<std::uint8_t>(m.format));
    p = putU32(p, static_cast<std::uint32_t>(m.body.size()));
    if (!m.body.empty())
        std::memcpy(p, m.body.data(), m.body.size());
    return p + m.body.size();
}

/** Write @p msg's frame of @p size = frameSize(msg) bytes at @p p. */
template <typename Msg>
void
encodeAt(std::uint8_t *p, std::size_t size, const Msg &msg)
{
    const std::uint8_t *end = encodeFrame(p, msg);
    if (end != p + size)
        panic("frame of type %u: its writer wrote %td bytes, frameSize "
              "reserved %zu",
              static_cast<unsigned>(p[4]), end - p, size);
}

/**
 * The one Submit parser: @p body (the @p len bytes after the type)
 * into @p v, in place. On a big-endian host the tag lanes are
 * byte-swapped where they lie, so the view's lanes are native.
 */
bool
parseSubmit(std::uint8_t *body, std::size_t len, SubmitView &v,
            std::string *error)
{
    Reader r{body, len, 0, true};
    v.id = r.getU64();
    v.tenant = r.getU64();
    v.deadline_rel_ns = r.getU64();
    const std::uint32_t lines = r.getU32();
    const std::uint8_t has_payload = r.getU8();
    if (!r.ok || has_payload > 1) {
        if (error)
            *error = "submit header malformed";
        return false;
    }
    // The remaining body length must match the declared line count
    // EXACTLY, in 64 bits, so a hostile count can neither wrap nor
    // point the view past the body: the frame size cap already
    // bounded len, and this check bounds lines by len.
    const std::uint64_t want =
        std::uint64_t{lines} * (has_payload ? 12 : 4);
    if (std::uint64_t{r.len - r.pos} != want) {
        if (error)
            *error = "submit body length disagrees with line count";
        return false;
    }
    std::uint8_t *lanes = body + r.pos;
    if constexpr (!kLittleEndian) {
        for (std::uint32_t i = 0; i < lines; ++i) {
            std::uint32_t t;
            std::memcpy(&t, lanes + 4 * std::size_t{i}, 4);
            t = __builtin_bswap32(t);
            std::memcpy(lanes + 4 * std::size_t{i}, &t, 4);
        }
    }
    v.num_lines = lines;
    v.has_payload = has_payload != 0;
    v.tags = lanes;
    v.payload = v.has_payload ? lanes + 4 * std::size_t{lines} : nullptr;
    return true;
}

bool
decodeBody(Reader &r, SubmitResultMsg &m, std::string *error)
{
    m.id = r.getU64();
    m.status = static_cast<Status>(r.getU8());
    m.tier = static_cast<ServeTier>(r.getU8());
    m.server_ns = r.getU64();
    const std::uint32_t count = r.getU32();
    if (!r.ok || std::uint64_t{r.len - r.pos} != std::uint64_t{count} * 8) {
        if (error)
            *error = "submit-result body length disagrees with "
                     "payload count";
        return false;
    }
    r.getU64s(count, m.payload);
    return r.ok;
}

bool
decodeBody(Reader &r, HealthResultMsg &m, std::string *error)
{
    m.state = static_cast<ServeState>(r.getU8());
    m.n = r.getU32();
    m.workers = r.getU32();
    m.uptime_ns = r.getU64();
    m.served = r.getU64();
    m.inflight = r.getU64();
    if (!r.consumed()) {
        if (error)
            *error = "health-result body malformed";
        return false;
    }
    return true;
}

bool
decodeBody(Reader &r, StatsResultMsg &m, std::string *error)
{
    m.format = static_cast<StatsFormat>(r.getU8());
    const std::uint32_t len = r.getU32();
    if (!r.ok || r.len - r.pos != len) {
        if (error)
            *error = "stats-result body length disagrees with "
                     "declared size";
        return false;
    }
    m.body.assign(reinterpret_cast<const char *>(r.p + r.pos), len);
    r.pos += len;
    return true;
}

/** Every type but Submit, into its owning Message. */
bool
decodeOther(std::uint8_t type, Reader &r, Message &out,
            std::string *error)
{
    switch (static_cast<MsgType>(type)) {
      case MsgType::SubmitResult: {
        SubmitResultMsg m;
        if (!decodeBody(r, m, error) || !r.consumed())
            return false;
        out = std::move(m);
        return true;
      }
      case MsgType::Health:
        if (!r.consumed()) {
            if (error)
                *error = "health body must be empty";
            return false;
        }
        out = HealthMsg{};
        return true;
      case MsgType::HealthResult: {
        HealthResultMsg m;
        if (!decodeBody(r, m, error))
            return false;
        out = std::move(m);
        return true;
      }
      case MsgType::Stats: {
        StatsMsg m;
        m.format = static_cast<StatsFormat>(r.getU8());
        if (!r.consumed() || (m.format != StatsFormat::PrometheusText &&
                              m.format != StatsFormat::Json)) {
            if (error)
                *error = "stats body malformed";
            return false;
        }
        out = m;
        return true;
      }
      case MsgType::StatsResult: {
        StatsResultMsg m;
        if (!decodeBody(r, m, error) || !r.consumed())
            return false;
        out = std::move(m);
        return true;
      }
      case MsgType::Submit:
        break;
    }
    if (error)
        *error = "unknown message type " + std::to_string(type);
    return false;
}

} // namespace

const char *
statusName(Status s) noexcept
{
    switch (s) {
      case Status::Ok:
        return "ok";
      case Status::NotInF:
        return "not_in_F";
      case Status::FaultDetected:
        return "fault_detected";
      case Status::DeadlineExceeded:
        return "deadline_exceeded";
      case Status::Shed:
        return "shed";
      case Status::OverQuota:
        return "over_quota";
      case Status::BadRequest:
        return "bad_request";
      case Status::Draining:
        return "draining";
    }
    return "unknown";
}

Status
statusFromErrc(RouteErrc e) noexcept
{
    // RouteErrc values are the low range of Status by construction.
    return static_cast<Status>(static_cast<std::uint8_t>(e));
}

MsgType
messageType(const Message &m) noexcept
{
    struct Visitor
    {
        MsgType operator()(const SubmitMsg &) { return MsgType::Submit; }
        MsgType
        operator()(const SubmitResultMsg &)
        {
            return MsgType::SubmitResult;
        }
        MsgType operator()(const HealthMsg &) { return MsgType::Health; }
        MsgType
        operator()(const HealthResultMsg &)
        {
            return MsgType::HealthResult;
        }
        MsgType operator()(const StatsMsg &) { return MsgType::Stats; }
        MsgType
        operator()(const StatsResultMsg &)
        {
            return MsgType::StatsResult;
        }
    };
    return std::visit(Visitor{}, m);
}

void
encode(const Message &m, std::vector<std::uint8_t> &out)
{
    std::visit(
        [&out](const auto &msg) {
            const std::size_t at = out.size();
            const std::size_t size = frameSize(msg);
            out.resize(at + size);
            encodeAt(out.data() + at, size, msg);
        },
        m);
}

void
encode(const Message &m, ByteBuffer &out)
{
    std::visit(
        [&out](const auto &msg) {
            const std::size_t size = frameSize(msg);
            encodeAt(out.prepare(size), size, msg);
            out.commit(size);
        },
        m);
}

void
putSubmitResultHead(std::uint8_t *frame, std::uint64_t id, Status status,
                    ServeTier tier, std::uint64_t server_ns,
                    std::uint32_t payload_count)
{
    std::uint8_t *p = putFrameHead(
        frame, kSubmitResultHead + std::size_t{payload_count} * 8,
        MsgType::SubmitResult);
    p = putU64(p, id);
    p = putU8(p, static_cast<std::uint8_t>(status));
    p = putU8(p, static_cast<std::uint8_t>(tier));
    p = putU64(p, server_ns);
    putU32(p, payload_count);
}

std::uint8_t *
ByteBuffer::prepare(std::size_t n)
{
    if (capacity_ - tail_ >= n)
        return buf_.get() + tail_;
    // Move the live bytes to the front first, which is often room
    // enough: what is left of a read is at most a partial frame.
    const std::size_t live = tail_ - head_;
    if (head_ > 0) {
        if (live > 0)
            std::memmove(buf_.get(), buf_.get() + head_, live);
        head_ = 0;
        tail_ = live;
        if (capacity_ - tail_ >= n)
            return buf_.get() + tail_;
    }
    // Grow without zero-filling: only the bytes written are touched.
    const std::size_t capacity = std::max(capacity_ * 2, live + n);
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
    if (live > 0)
        std::memcpy(grown.get(), buf_.get(), live);
    buf_ = std::move(grown);
    capacity_ = capacity;
    return buf_.get() + tail_;
}

void
SubmitView::copyTags(std::vector<Word> &out) const
{
    out.resize(num_lines);
    for (std::size_t i = 0; i < num_lines; ++i)
        out[i] = tag(i);
}

void
SubmitView::copyPayload(std::vector<Word> &out) const
{
    if (!has_payload) {
        out.clear();
        return;
    }
    getU64s(payload, num_lines, out);
}

SubmitMsg
SubmitView::toMessage() const
{
    SubmitMsg m;
    m.id = id;
    m.tenant = tenant;
    m.deadline_rel_ns = deadline_rel_ns;
    copyTags(m.dest);
    m.has_payload = has_payload;
    copyPayload(m.payload);
    return m;
}

void
Decoder::feed(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return;
    std::memcpy(buf_.prepare(len), data, len);
    buf_.commit(len);
}

DecodeStatus
Decoder::next(Frame &out, std::string *error)
{
    if (poisoned_) {
        if (error)
            *error = "decoder poisoned by earlier protocol error";
        return DecodeStatus::Error;
    }
    if (buffered() < 4)
        return DecodeStatus::NeedMore;
    std::uint8_t *base = buf_.data();
    const std::uint32_t body_len =
        static_cast<std::uint32_t>(base[0]) |
        static_cast<std::uint32_t>(base[1]) << 8 |
        static_cast<std::uint32_t>(base[2]) << 16 |
        static_cast<std::uint32_t>(base[3]) << 24;
    if (body_len < 1 || body_len > max_frame_) {
        poisoned_ = true;
        if (error)
            *error = "frame length " + std::to_string(body_len) +
                     " outside [1, " + std::to_string(max_frame_) +
                     "]";
        return DecodeStatus::Error;
    }
    if (buffered() < 4 + std::size_t{body_len})
        return DecodeStatus::NeedMore;

    const std::uint8_t type = base[4];
    std::uint8_t *body = base + 4 + 1;
    const std::size_t len = std::size_t{body_len} - 1;
    bool ok;
    if (type == static_cast<std::uint8_t>(MsgType::Submit)) {
        ok = parseSubmit(body, len, out.submit, error);
    } else {
        Reader r{body, len, 0, true};
        ok = decodeOther(type, r, out.message, error);
    }
    if (!ok) {
        poisoned_ = true;
        if (error && error->empty())
            *error = "malformed frame body";
        return DecodeStatus::Error;
    }
    out.type = static_cast<MsgType>(type);
    // The bytes stay where they are until the next prepare(), so a
    // Submit's view outlives its consumption.
    buf_.consume(4 + std::size_t{body_len});
    return DecodeStatus::Ok;
}

DecodeStatus
Decoder::next(Message &out, std::string *error)
{
    Frame f;
    const DecodeStatus st = next(f, error);
    if (st == DecodeStatus::Ok)
        out = f.type == MsgType::Submit ? Message{f.submit.toMessage()}
                                        : std::move(f.message);
    return st;
}

} // namespace net
} // namespace srbenes

/**
 * @file
 * Frame codec implementation. Encoding appends to a caller buffer
 * (one allocation-free path for a connection's write queue);
 * decoding is a bounds-checked cursor over the receive buffer that
 * treats ANY deviation — short body, long body, unknown type,
 * counts that disagree with the body length — as a poisoning
 * protocol error.
 *
 * Header fields go through putU*()/getU*() one at a time; the
 * dest and payload arrays are converted in bulk (one bounds check
 * and one resize per array, then memcpy), which on a little-endian
 * host is a straight copy for the u64 arrays.
 */

#include "net/protocol.hh"

#include <bit>
#include <cstring>

namespace srbenes
{
namespace net
{
namespace
{

constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

// ------------------------------------------------------------ writer

void
putU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

/** Append @p words as little-endian u32s (dest tags; narrowed). */
void
putU32s(std::vector<std::uint8_t> &out, const std::vector<Word> &words)
{
    const std::size_t at = out.size();
    out.resize(at + words.size() * 4);
    std::uint8_t *p = out.data() + at;
    for (Word w : words) {
        std::uint32_t v = static_cast<std::uint32_t>(w);
        if constexpr (!kLittleEndian)
            v = __builtin_bswap32(v);
        std::memcpy(p, &v, 4);
        p += 4;
    }
}

/** Append @p words as little-endian u64s. */
void
putU64s(std::vector<std::uint8_t> &out, const std::vector<Word> &words)
{
    const std::size_t at = out.size();
    out.resize(at + words.size() * 8);
    std::uint8_t *p = out.data() + at;
    if constexpr (kLittleEndian) {
        if (!words.empty())
            std::memcpy(p, words.data(), words.size() * 8);
    } else {
        for (Word w : words) {
            const std::uint64_t v = __builtin_bswap64(w);
            std::memcpy(p, &v, 8);
            p += 8;
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

    /** Read @p count little-endian u32s into @p out (one check). */
    void
    getU32s(std::size_t count, std::vector<Word> &out)
    {
        if (!need(count * 4))
            return;
        out.resize(count);
        const std::uint8_t *src = p + pos;
        for (std::size_t i = 0; i < count; ++i) {
            std::uint32_t v;
            std::memcpy(&v, src + i * 4, 4);
            if constexpr (!kLittleEndian)
                v = __builtin_bswap32(v);
            out[i] = v;
        }
        pos += count * 4;
    }

    /** Read @p count little-endian u64s into @p out (one check). */
    void
    getU64s(std::size_t count, std::vector<Word> &out)
    {
        if (!need(count * 8))
            return;
        out.resize(count);
        if constexpr (kLittleEndian) {
            if (count != 0)
                std::memcpy(out.data(), p + pos, count * 8);
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                std::uint64_t v;
                std::memcpy(&v, p + pos + i * 8, 8);
                out[i] = __builtin_bswap64(v);
            }
        }
        pos += count * 8;
    }

    bool consumed() const { return ok && pos == len; }
};

// --------------------------------------------------------- per-type

void
encodeBody(const SubmitMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::Submit));
    putU64(out, m.id);
    putU64(out, m.tenant);
    putU64(out, m.deadline_rel_ns);
    putU32(out, static_cast<std::uint32_t>(m.dest.size()));
    putU8(out, m.has_payload ? 1 : 0);
    putU32s(out, m.dest);
    if (m.has_payload)
        putU64s(out, m.payload);
}

void
encodeBody(const SubmitResultMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::SubmitResult));
    putU64(out, m.id);
    putU8(out, static_cast<std::uint8_t>(m.status));
    putU8(out, static_cast<std::uint8_t>(m.tier));
    putU64(out, m.server_ns);
    putU32(out, static_cast<std::uint32_t>(m.payload.size()));
    putU64s(out, m.payload);
}

void
encodeBody(const HealthMsg &, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::Health));
}

void
encodeBody(const HealthResultMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::HealthResult));
    putU8(out, static_cast<std::uint8_t>(m.state));
    putU32(out, m.n);
    putU32(out, m.workers);
    putU64(out, m.uptime_ns);
    putU64(out, m.served);
    putU64(out, m.inflight);
}

void
encodeBody(const StatsMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::Stats));
    putU8(out, static_cast<std::uint8_t>(m.format));
}

void
encodeBody(const StatsResultMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::StatsResult));
    putU8(out, static_cast<std::uint8_t>(m.format));
    putU32(out, static_cast<std::uint32_t>(m.body.size()));
    out.insert(out.end(), m.body.begin(), m.body.end());
}

bool
decodeBody(Reader &r, SubmitMsg &m, std::string *error)
{
    m.id = r.getU64();
    m.tenant = r.getU64();
    m.deadline_rel_ns = r.getU64();
    const std::uint32_t lines = r.getU32();
    const std::uint8_t has_payload = r.getU8();
    if (!r.ok || has_payload > 1) {
        if (error)
            *error = "submit header malformed";
        return false;
    }
    // The remaining body length must match the declared line count
    // EXACTLY, so a hostile count cannot drive a huge allocation:
    // the frame size cap already bounded len, and this check bounds
    // lines by len.
    const std::size_t want =
        std::size_t{lines} * (has_payload ? 12 : 4);
    if (r.len - r.pos != want) {
        if (error)
            *error = "submit body length disagrees with line count";
        return false;
    }
    r.getU32s(lines, m.dest);
    m.has_payload = has_payload != 0;
    m.payload.clear();
    if (m.has_payload)
        r.getU64s(lines, m.payload);
    return r.ok;
}

bool
decodeBody(Reader &r, SubmitResultMsg &m, std::string *error)
{
    m.id = r.getU64();
    m.status = static_cast<Status>(r.getU8());
    m.tier = static_cast<ServeTier>(r.getU8());
    m.server_ns = r.getU64();
    const std::uint32_t count = r.getU32();
    if (!r.ok || r.len - r.pos != std::size_t{count} * 8) {
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
    const std::size_t frame_start = out.size();
    putU32(out, 0); // length backpatched below
    std::visit([&out](const auto &msg) { encodeBody(msg, out); }, m);
    const std::size_t body_len = out.size() - frame_start - 4;
    out[frame_start] = static_cast<std::uint8_t>(body_len);
    out[frame_start + 1] = static_cast<std::uint8_t>(body_len >> 8);
    out[frame_start + 2] = static_cast<std::uint8_t>(body_len >> 16);
    out[frame_start + 3] = static_cast<std::uint8_t>(body_len >> 24);
}

void
Decoder::feed(const std::uint8_t *data, std::size_t len)
{
    // Compact once the consumed prefix dominates, so a long-lived
    // connection's buffer does not grow with total traffic.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + len);
}

DecodeStatus
Decoder::next(Message &out, std::string *error)
{
    if (poisoned_) {
        if (error)
            *error = "decoder poisoned by earlier protocol error";
        return DecodeStatus::Error;
    }
    if (buffered() < 4)
        return DecodeStatus::NeedMore;
    const std::uint8_t *base = buf_.data() + pos_;
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

    Reader r{base + 4 + 1, std::size_t{body_len} - 1, 0, true};
    const std::uint8_t type = base[4];
    bool ok = false;
    switch (static_cast<MsgType>(type)) {
      case MsgType::Submit: {
        SubmitMsg m;
        ok = decodeBody(r, m, error) && r.consumed();
        if (ok)
            out = std::move(m);
        break;
      }
      case MsgType::SubmitResult: {
        SubmitResultMsg m;
        ok = decodeBody(r, m, error) && r.consumed();
        if (ok)
            out = std::move(m);
        break;
      }
      case MsgType::Health: {
        ok = r.consumed();
        if (ok)
            out = HealthMsg{};
        else if (error)
            *error = "health body must be empty";
        break;
      }
      case MsgType::HealthResult: {
        HealthResultMsg m;
        ok = decodeBody(r, m, error);
        if (ok)
            out = std::move(m);
        break;
      }
      case MsgType::Stats: {
        StatsMsg m;
        m.format = static_cast<StatsFormat>(r.getU8());
        ok = r.consumed() &&
             (m.format == StatsFormat::PrometheusText ||
              m.format == StatsFormat::Json);
        if (ok)
            out = std::move(m);
        else if (error)
            *error = "stats body malformed";
        break;
      }
      case MsgType::StatsResult: {
        StatsResultMsg m;
        ok = decodeBody(r, m, error) && r.consumed();
        if (ok)
            out = std::move(m);
        break;
      }
      default:
        if (error)
            *error = "unknown message type " + std::to_string(type);
        break;
    }
    if (!ok) {
        poisoned_ = true;
        if (error && error->empty())
            *error = "malformed frame body";
        return DecodeStatus::Error;
    }
    pos_ += 4 + std::size_t{body_len};
    return DecodeStatus::Ok;
}

} // namespace net
} // namespace srbenes

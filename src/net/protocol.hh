/**
 * @file
 * srbd wire protocol: the compact length-prefixed binary frames the
 * routing daemon speaks on its socket.
 *
 * A frame is a 4-byte little-endian body length followed by the
 * body; the body's first byte is the message type. Integers are
 * little-endian, fixed width, unaligned. There is no negotiation
 * and no versioned handshake — the protocol is deliberately small
 * enough that a client can be written from this header alone:
 *
 *   Submit        u64 id, u64 tenant, u64 deadline_rel_ns,
 *                 u32 num_lines, u8 has_payload,
 *                 num_lines x u32 dest[, num_lines x u64 payload]
 *   SubmitResult  u64 id, u8 status, u8 tier, u64 server_ns,
 *                 u32 payload_count[, payload_count x u64 payload]
 *   Health        (empty)
 *   HealthResult  u8 state, u32 n, u32 workers, u64 uptime_ns,
 *                 u64 served, u64 inflight
 *   Stats         u8 format (0 = Prometheus text, 1 = JSON)
 *   StatsResult   u8 format, u32 len, len x u8 body
 *
 * Every Submit receives exactly one SubmitResult carrying the
 * client-chosen id — including refusals (shed, over-quota,
 * draining, bad-request), so a client can always account for every
 * request it sent. Status is the wire superset of RouteErrc: the
 * in-process taxonomy plus the service-level refusals that only
 * exist once a socket and a tenant sit in front of the fabric.
 *
 * The Decoder is a pull parser over a growing byte buffer that
 * reads land in directly. It parses a Submit in place, as a
 * SubmitView over that buffer, and decodes every other type into an
 * owning Message; next(Message &) builds the owning SubmitMsg from
 * the same view, so there is one Submit parser. It never throws and
 * never reads out of bounds: a frame longer than the configured
 * maximum, an unknown type, or a body that does not parse exactly
 * (trailing bytes included) yields DecodeStatus::Error, after which
 * the connection must be closed — there is no resynchronization in a
 * length-prefixed stream.
 *
 * A Submit's largest frame grows 12 bytes a line, so under the
 * default 1 MiB cap the largest fabric that can be served is n = 16
 * (a 786,462-byte body; n = 17 would need 1,572,894).
 */

#ifndef SRBENES_NET_PROTOCOL_HH
#define SRBENES_NET_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/bitops.hh"
#include "core/fast_kernels.hh"
#include "core/route_outcome.hh"

namespace srbenes
{
namespace net
{

/** Body type tag, the first byte of every frame body. */
enum class MsgType : std::uint8_t
{
    Submit = 1,
    SubmitResult = 2,
    Health = 3,
    HealthResult = 4,
    Stats = 5,
    StatsResult = 6,
};

/**
 * Wire status of one submission: RouteErrc verbatim (same values)
 * plus the service-level refusals a bare fabric cannot produce.
 */
enum class Status : std::uint8_t
{
    Ok = 0,
    NotInF = 1,
    FaultDetected = 2,
    DeadlineExceeded = 3,
    Shed = 4,
    /** Tenant token bucket empty; retry after its refill horizon. */
    OverQuota = 16,
    /** Malformed request semantics (size mismatch, not a
     *  permutation) — the frame itself was well-formed. */
    BadRequest = 17,
    /** The daemon is draining and accepts no new work. */
    Draining = 18,
};

const char *statusName(Status s) noexcept;
Status statusFromErrc(RouteErrc e) noexcept;

/** HealthResult.state values. */
enum class ServeState : std::uint8_t
{
    Serving = 0,
    Draining = 1,
};

/** StatsResult / Stats format selector. */
enum class StatsFormat : std::uint8_t
{
    PrometheusText = 0,
    Json = 1,
};

struct SubmitMsg
{
    std::uint64_t id = 0;
    std::uint64_t tenant = 0;
    /** Relative deadline; 0 = the server's default. */
    std::uint64_t deadline_rel_ns = 0;
    /** Destination tags: input i goes to output dest[i]. */
    std::vector<Word> dest;
    bool has_payload = false;
    /** One word per line when has_payload; routed and echoed back. */
    std::vector<Word> payload;

    bool operator==(const SubmitMsg &) const = default;
};

/**
 * A Submit read in place: the header's fields, and its arrays as
 * lanes in the Decoder's buffer, valid until the Decoder's next read
 * (prepare() or feed()), which may move or overwrite them. Lanes sit
 * at any byte alignment (the tags start at frame offset 34, 2 mod 4),
 * so both arrays are untyped bytes: they are read through tag(),
 * copyTags() and copyPayload(), or handed to the kernels, which load
 * them through memcpy or unaligned vector loads.
 */
struct SubmitView
{
    std::uint64_t id = 0;
    std::uint64_t tenant = 0;
    std::uint64_t deadline_rel_ns = 0;
    std::uint32_t num_lines = 0;
    bool has_payload = false;
    /** num_lines u32 tag lanes: input i goes to output tag(i). On a
     *  big-endian host the Decoder has byte-swapped them in place, so
     *  they are native. */
    const std::uint8_t *tags = nullptr;
    /** num_lines u64 payload lanes, little-endian as on the wire;
     *  null unless has_payload. */
    const std::uint8_t *payload = nullptr;

    std::uint32_t tag(std::size_t i) const { return tagLane(tags, i); }

    /** The tags widened to Words, into @p out (resized). */
    void copyTags(std::vector<Word> &out) const;
    /** The payload lanes into @p out (resized; emptied when the
     *  Submit carries none). */
    void copyPayload(std::vector<Word> &out) const;
    /** The owning SubmitMsg: tags widened, payload copied. */
    SubmitMsg toMessage() const;
};

struct SubmitResultMsg
{
    std::uint64_t id = 0;
    Status status = Status::Ok;
    ServeTier tier = ServeTier::Primary;
    /** Server-side submit→complete time for the request. */
    std::uint64_t server_ns = 0;
    /** Routed payload when the request carried one and succeeded;
     *  empty otherwise. */
    std::vector<Word> payload;

    bool operator==(const SubmitResultMsg &) const = default;
};

struct HealthMsg
{
    bool operator==(const HealthMsg &) const = default;
};

struct HealthResultMsg
{
    ServeState state = ServeState::Serving;
    std::uint32_t n = 0;
    std::uint32_t workers = 0;
    std::uint64_t uptime_ns = 0;
    std::uint64_t served = 0;
    std::uint64_t inflight = 0;

    bool operator==(const HealthResultMsg &) const = default;
};

struct StatsMsg
{
    StatsFormat format = StatsFormat::PrometheusText;

    bool operator==(const StatsMsg &) const = default;
};

struct StatsResultMsg
{
    StatsFormat format = StatsFormat::PrometheusText;
    std::string body;

    bool operator==(const StatsResultMsg &) const = default;
};

using Message = std::variant<SubmitMsg, SubmitResultMsg, HealthMsg,
                             HealthResultMsg, StatsMsg, StatsResultMsg>;

/** MsgType tag of a Message variant. */
MsgType messageType(const Message &m) noexcept;

/** Frames larger than this are a protocol error by default. */
constexpr std::size_t kDefaultMaxFrame = 1u << 20;

/**
 * A growable byte buffer whose spare capacity is never zero-filled:
 * bytes are written in place past its end (a recv(), a reply frame's
 * gather) and then committed, so capacity that is reserved but never
 * written is never touched. The live bytes are [data(), data() +
 * size()); consume() drops them from the front, and prepare() moves
 * what is left to the start before it grows the buffer.
 */
class ByteBuffer
{
  public:
    const std::uint8_t *data() const { return buf_.get() + head_; }
    std::uint8_t *data() { return buf_.get() + head_; }
    std::size_t size() const { return tail_ - head_; }

    /**
     * At least @p n writable bytes past the end, uninitialized; they
     * join the live bytes only when commit()ted. Pointers into the
     * buffer are valid until the next prepare().
     */
    std::uint8_t *prepare(std::size_t n);
    void commit(std::size_t n) { tail_ += n; }
    /** Drop @p n live bytes from the front (n <= size()). */
    void
    consume(std::size_t n)
    {
        head_ += n;
        if (head_ == tail_)
            head_ = tail_ = 0;
    }

  private:
    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

/** Serialize @p m as one complete frame appended to @p out. */
void encode(const Message &m, std::vector<std::uint8_t> &out);

/** encode() into a ByteBuffer, written in place past its end. */
void encode(const Message &m, ByteBuffer &out);

/**
 * Bytes of a SubmitResult frame ahead of its payload lanes: the
 * length prefix, type, id, status, tier, server_ns and
 * payload_count.
 */
constexpr std::size_t kSubmitResultHead = 4 + 1 + 8 + 1 + 1 + 8 + 4;

/**
 * Write a SubmitResult frame's head at @p frame, for @p payload_count
 * payload lanes the caller writes (or has written) at
 * frame + kSubmitResultHead: the one writer of this frame, shared by
 * encode() and srbd's hit path, which gathers the payload into a
 * frame it reserved.
 */
void putSubmitResultHead(std::uint8_t *frame, std::uint64_t id,
                         Status status, ServeTier tier,
                         std::uint64_t server_ns,
                         std::uint32_t payload_count);

enum class DecodeStatus
{
    Ok,       //!< one message extracted
    NeedMore, //!< buffer holds no complete frame yet
    Error,    //!< unrecoverable; close the connection
};

/**
 * One decoded frame: a Submit as a view into the Decoder's buffer,
 * anything else as an owning Message.
 */
struct Frame
{
    MsgType type = MsgType::Submit;
    /** Set when type is Submit; message is then left alone. */
    SubmitView submit;
    /** Set for every other type. */
    Message message;
};

/**
 * Incremental frame parser over one receive buffer. Bytes arrive by
 * prepare() and commit() — a socket read lands in the buffer itself —
 * or by feed(), which copies them in; complete frames are pulled with
 * next(). After Error the decoder is poisoned and every further
 * next() returns Error.
 *
 * A Submit is parsed in place: next(Frame &) returns it as a
 * SubmitView, valid until the next prepare() or feed(), which may
 * compact or grow the buffer. A server finishes a hit, and copies a
 * miss out, before it reads again. next(Message &) builds the owning
 * SubmitMsg from that same view, so clients, tools and tests keep
 * one API and the Submit rules live in one parser: the declared
 * count must account for exactly the bytes that remain, computed in
 * 64 bits so no count can wrap, and has_payload must be 0 or 1.
 */
class Decoder
{
  public:
    explicit Decoder(std::size_t max_frame = kDefaultMaxFrame)
        : max_frame_(max_frame)
    {
    }

    /** Copy @p len bytes in: prepare(), memcpy, commit(). */
    void feed(const std::uint8_t *data, std::size_t len);

    /** @{ Room for at least @p len more bytes, uninitialized, then
     *  how many of them arrived (ByteBuffer). */
    std::uint8_t *prepare(std::size_t len) { return buf_.prepare(len); }
    void commit(std::size_t len) { buf_.commit(len); }
    /** @} */

    DecodeStatus next(Frame &out, std::string *error = nullptr);

    DecodeStatus next(Message &out, std::string *error = nullptr);

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buf_.size(); }

  private:
    ByteBuffer buf_;
    std::size_t max_frame_;
    bool poisoned_ = false;
};

} // namespace net
} // namespace srbenes

#endif // SRBENES_NET_PROTOCOL_HH

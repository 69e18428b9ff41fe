#include "wire.hh"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "net/protocol.hh"
#include "obs/metrics.hh"
#include "spans.hh"

namespace srbench
{

namespace net = srbenes::net;
using srbenes::obs::monotonicNs;

namespace
{

/** How long srbd may owe an answer before requests count as lost. */
constexpr int kStallMs = 10000;
/** Low 16 bits of a request id name its slot. */
constexpr unsigned kSlotBits = 16;
/**
 * In a traced phase one request in this many records its spans,
 * which bounds the span log; every round trip is still timed.
 */
constexpr std::uint64_t kTraceEvery = 8;

std::uint32_t
le32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

std::uint64_t
le64(const std::uint8_t *p)
{
    return std::uint64_t{le32(p)} | std::uint64_t{le32(p + 4)} << 32;
}

void
putLe64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
sleepMs(long ms)
{
    timespec ts{ms / 1000, (ms % 1000) * 1000000L};
    ::nanosleep(&ts, nullptr);
}

} // namespace

// ---------------------------------------------------------------- Srbd

std::unique_ptr<Srbd>
Srbd::spawn(const std::string &bin, unsigned n, std::string &error)
{
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return nullptr;
    }
    std::string n_arg = "--n=" + std::to_string(n);
    std::string port_arg = "--port=0";
    std::string quiet_arg = "--quiet";
    std::string prog = bin;
    char *argv[] = {prog.data(), port_arg.data(), n_arg.data(),
                    quiet_arg.data(), nullptr};
    const pid_t parent = ::getpid();

    const pid_t pid = ::fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        ::close(out[0]);
        ::close(out[1]);
        return nullptr;
    }
    if (pid == 0) {
        // The daemon must not outlive the benchmark.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(out[1], STDOUT_FILENO);
        ::execv(prog.c_str(), argv);
        ::_exit(127);
    }
    ::close(out[1]);
    auto s = std::make_unique<Srbd>();
    s->pid_ = pid;
    s->stdout_fd_ = out[0];

    // srbd prints "srbd: listening on 127.0.0.1:PORT (...)" once the
    // socket is up.
    std::string text;
    const std::uint64_t deadline = monotonicNs() + 30ULL * 1000000000ULL;
    while (text.find('\n') == std::string::npos) {
        const std::uint64_t now = monotonicNs();
        if (now >= deadline) {
            error = "srbd did not report its port";
            return nullptr;
        }
        pollfd p{s->stdout_fd_, POLLIN, 0};
        const int r = ::poll(&p, 1,
                             static_cast<int>((deadline - now) / 1000000) + 1);
        if (r < 0 && errno == EINTR)
            continue;
        char buf[256];
        const ssize_t got = r > 0 ? ::read(s->stdout_fd_, buf, sizeof(buf))
                                  : 0;
        if (got <= 0) {
            error = "srbd exited before listening";
            return nullptr;
        }
        text.append(buf, static_cast<std::size_t>(got));
    }
    const std::string key = "listening on 127.0.0.1:";
    const std::size_t at = text.find(key);
    if (at == std::string::npos) {
        error = "unexpected srbd banner: " + text;
        return nullptr;
    }
    s->port_ = static_cast<std::uint16_t>(
        std::strtoul(text.c_str() + at + key.size(), nullptr, 10));
    if (s->port_ == 0) {
        error = "srbd reported no port";
        return nullptr;
    }
    return s;
}

int
Srbd::stop()
{
    if (pid_ <= 0)
        return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    // srbd's drain grace is 10 s; give it a little more, then kill.
    for (int waited = 0; waited < 15000; ++waited) {
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno != EINTR)) {
            reaped = r == pid_;
            break;
        }
        sleepMs(1);
    }
    if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        status = -1;
    }
    pid_ = -1;
    if (stdout_fd_ >= 0) {
        ::close(stdout_fd_);
        stdout_fd_ = -1;
    }
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

Srbd::~Srbd()
{
    stop();
}

// ----------------------------------------------------------- Generator

Generator::Generator(std::uint16_t port) : in_(1u << 20)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd_);
        fd_ = -1;
        return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Generator::~Generator()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
Generator::fail()
{
    broken_ = true;
    tally_.lost += inflight_;
    inflight_ = 0;
}

bool
Generator::flush()
{
    while (out_pos_ < out_.size()) {
        const ssize_t w =
            ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                   MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w > 0) {
            out_pos_ += static_cast<std::size_t>(w);
        } else if (w < 0 && errno == EINTR) {
            continue;
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return true;
        } else {
            return false;
        }
    }
    out_.clear();
    out_pos_ = 0;
    return true;
}

bool
Generator::receive()
{
    if (in_begin_ == in_end_)
        in_begin_ = in_end_ = 0;
    if (in_.size() - in_end_ < (in_.size() >> 2)) {
        std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
        in_end_ -= in_begin_;
        in_begin_ = 0;
        if (in_.size() - in_end_ < (in_.size() >> 2))
            in_.resize(in_.size() * 2);
    }
    const std::uint64_t give_up = monotonicNs() + kStallMs * 1000000ULL;
    for (;;) {
        // Part of a frame may still be unsent (a full socket buffer):
        // srbd cannot answer it before it has it.
        if (out_pos_ < out_.size() && !flush())
            return false;
        const ssize_t r = ::recv(fd_, in_.data() + in_end_,
                                 in_.size() - in_end_, MSG_DONTWAIT);
        if (r > 0) {
            in_end_ += static_cast<std::size_t>(r);
            return true;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR))
            return false; // EOF or a socket error
        if (monotonicNs() >= give_up)
            return false;
    }
}

void
Generator::consumeFrames(RttLog *log, SpanLog *spans)
{
    while (in_end_ - in_begin_ >= 4) {
        const std::uint8_t *f = in_.data() + in_begin_;
        const std::size_t len = le32(f);
        if (len > net::kDefaultMaxFrame) {
            ++tally_.protocol_errors;
            broken_ = true;
            return;
        }
        if (in_end_ - in_begin_ < 4 + len)
            return;
        const std::size_t flen = 4 + len;
        if (flen < kResultCountOffset + 4 ||
            f[4] != static_cast<std::uint8_t>(net::MsgType::SubmitResult)) {
            ++tally_.protocol_errors;
            broken_ = true;
            return;
        }
        const std::uint64_t id = le64(f + kFrameIdOffset);
        const std::size_t si = id & ((1u << kSlotBits) - 1);
        if (si >= slots_.size() || !slots_[si].busy || slots_[si].id != id) {
            ++tally_.protocol_errors;
            broken_ = true;
            return;
        }
        Slot &s = slots_[si];
        const std::vector<std::uint8_t> &exp = s.pattern->expect;
        if (f[kResultStatusOffset] !=
            static_cast<std::uint8_t>(net::Status::Ok))
            ++tally_.non_ok;
        else if (flen != exp.size() ||
                 std::memcmp(f + kResultStatusOffset,
                             exp.data() + kResultStatusOffset, 2) != 0 ||
                 std::memcmp(f + kResultCountOffset,
                             exp.data() + kResultCountOffset,
                             flen - kResultCountOffset) != 0)
            ++tally_.mismatch;
        else
            ++tally_.ok;
        const std::uint64_t done = monotonicNs();

        const std::uint64_t rtt = done - s.sent_ns;
        const std::uint64_t server = le64(f + kResultServerNsOffset);
        if (log != nullptr) {
            log->rtt_ns.push_back(rtt);
            log->server_ns.push_back(server);
        }
        if (spans != nullptr && (id >> kSlotBits) % kTraceEvery == 0) {
            // Where server_ns sits inside the round trip is not on
            // the wire; the engine child is centred, its length is
            // exact.
            const std::uint64_t root =
                spans->add("wire.request", s.sent_ns, done, id >> kSlotBits);
            const std::uint64_t lead = rtt > server ? (rtt - server) / 2 : 0;
            spans->add("stream.engine", s.sent_ns + lead,
                       s.sent_ns + lead + std::min(server, rtt),
                       id >> kSlotBits, root);
        }
        s.busy = false;
        s.pattern.reset();
        free_slots_.push_back(static_cast<std::uint32_t>(si));
        --inflight_;
        in_begin_ += flen;
    }
}

void
Generator::run(Workload &wl, unsigned window, std::uint64_t stop_ns,
               std::uint64_t max_requests, RttLog *log, SpanLog *spans)
{
    if (!healthy() || window == 0 || window >= (1u << kSlotBits))
        return;
    while (slots_.size() < window) {
        free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    std::uint64_t issued = 0;
    bool stopping = false;
    for (;;) {
        bool wrote = false;
        while (!stopping && inflight_ < window) {
            if ((max_requests != 0 && issued >= max_requests) ||
                (stop_ns != 0 && monotonicNs() >= stop_ns)) {
                stopping = true;
                break;
            }
            // A cold pattern is built inside next(), before the stamp.
            std::shared_ptr<const Pattern> p = wl.next();
            const std::uint32_t si = free_slots_.back();
            free_slots_.pop_back();
            Slot &s = slots_[si];
            s.id = (next_seq_++ << kSlotBits) | si;
            s.pattern = std::move(p);
            s.busy = true;
            const std::vector<std::uint8_t> &frame = s.pattern->submit;
            const std::size_t at = out_.size();
            out_.insert(out_.end(), frame.begin(), frame.end());
            putLe64(out_.data() + at + kFrameIdOffset, s.id);
            s.sent_ns = monotonicNs();
            ++inflight_;
            ++issued;
            ++tally_.sent;
            wrote = true;
        }
        if (wrote && !flush()) {
            fail();
            return;
        }
        if (inflight_ == 0)
            return;
        if (!receive()) {
            fail();
            return;
        }
        consumeFrames(log, spans);
        if (broken_) {
            fail();
            return;
        }
    }
}

std::uint64_t
Generator::healthRoundTripNs()
{
    if (!healthy() || inflight_ != 0)
        return 0;
    static const std::uint8_t kHealth[5] = {
        1, 0, 0, 0, static_cast<std::uint8_t>(net::MsgType::Health)};
    const std::uint64_t t0 = monotonicNs();
    if (::send(fd_, kHealth, sizeof(kHealth), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(sizeof(kHealth))) {
        broken_ = true;
        return 0;
    }
    for (;;) {
        const std::size_t have = in_end_ - in_begin_;
        if (have >= 4 && have >= 4 + le32(in_.data() + in_begin_))
            break;
        if (!receive()) {
            broken_ = true;
            return 0;
        }
    }
    const std::uint8_t *f = in_.data() + in_begin_;
    const std::uint64_t t1 = monotonicNs();
    if (f[4] != static_cast<std::uint8_t>(net::MsgType::HealthResult)) {
        ++tally_.protocol_errors;
        broken_ = true;
        return 0;
    }
    in_begin_ += 4 + le32(f);
    return t1 - t0;
}

// ---------------------------------------------------------- functions

double
measureColdStart(const std::string &bin, unsigned n)
{
    const std::uint64_t t0 = monotonicNs();
    std::string error;
    std::unique_ptr<Srbd> s = Srbd::spawn(bin, n, error);
    if (!s)
        return -1;
    net::Client c;
    net::Message resp;
    bool ok = c.connect("127.0.0.1", s->port()) &&
              c.roundTrip(net::Message{net::HealthMsg{}}, resp) &&
              std::holds_alternative<net::HealthResultMsg>(resp);
    const std::uint64_t t1 = monotonicNs();
    c.close();
    if (s->stop() != 0)
        ok = false;
    return ok ? static_cast<double>(t1 - t0) * 1e-9 : -1;
}

std::string
scrapeStats(net::Client &control)
{
    net::StatsMsg req;
    req.format = net::StatsFormat::PrometheusText;
    net::Message resp;
    if (!control.roundTrip(net::Message{req}, resp))
        return "";
    const auto *s = std::get_if<net::StatsResultMsg>(&resp);
    return s != nullptr ? s->body : "";
}

} // namespace srbench

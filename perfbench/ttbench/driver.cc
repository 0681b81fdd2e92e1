/**
 * @file
 * `ttbench drive`: the load generator and the benchmark's measuring
 * side. Everything is measured from outside the server process:
 *
 *  - it boots `ttbench serve` several times and times each boot to
 *    the first served response (setup_s is their median);
 *  - one event-loop thread drives the last server over at most nproc
 *    pipelined loopback connections, on seeded open-loop Poisson
 *    schedules (plus t0's closed window on ic_flood), timing every
 *    request from its scheduled send;
 *  - every response frame is compared byte for byte with the oracle;
 *  - server CPU, context switches and peak RSS come from the server's
 *    own getrusage, asked for between phases over its stdin.
 *
 * With --trace 1 it first repeats the untimed-wrapper run, then runs
 * a traced server whose versions are wrapped in TimedVersion, joins
 * the version-call spans to the requests by payload and time window,
 * and adds the server's single-thread in-process layer pass.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <optional>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sstream>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "core/policy.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "oracle.hh"
#include "workload.hh"

extern char **environ;

namespace perfbench {

namespace {

constexpr std::size_t kConnections = 4; //!< nproc on the target VM.
constexpr int kSetupBoots = 5;
/** A run whose generator sent later than this (p99) is invalid: it is
 * the loosest SLO limit, so the latency metrics would measure the
 * generator. (Under ~35% CPU steal the pinned generator's p99 lag
 * reached 4-10 ms; healthy runs stay under 1.5 ms.) */
constexpr double kMaxLagMs = 25.0;
/** The pinned-rate and saturation phases run as this many equal
 * parts; timing metrics are medians over parts. */
constexpr std::size_t kPinnedParts = 5;

using Fields = std::map<std::string, double>;

/** Parse `tag k=v k=v ...` into a map (the tag is dropped). */
Fields
parseFields(const std::string &line)
{
    Fields out;
    std::istringstream is(line);
    std::string tok;
    is >> tok;
    while (is >> tok) {
        auto eq = tok.find('=');
        if (eq != std::string::npos)
            out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
    return out;
}

double
field(const Fields &f, const std::string &name)
{
    auto it = f.find(name);
    return it == f.end() ? 0.0 : it->second;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

// ------------------------------------------------------ the server

/** One `ttbench serve` child process and its command pipes. */
class ServerProc
{
  public:
    ServerProc() = default;
    ~ServerProc() { stop(); }
    ServerProc(const ServerProc &) = delete;
    ServerProc &operator=(const ServerProc &) = delete;

    /** Spawn and wait for the port line; false on any failure. */
    bool
    start(const std::vector<std::string> &args)
    {
        int in_pipe[2], out_pipe[2];
        if (pipe2(in_pipe, O_CLOEXEC) != 0)
            return false;
        if (pipe2(out_pipe, O_CLOEXEC) != 0) {
            ::close(in_pipe[0]);
            ::close(in_pipe[1]);
            return false;
        }
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(in_pipe[0]);
        ::close(out_pipe[1]);
        in_ = in_pipe[1];
        out_ = out_pipe[0];
        if (rc != 0) {
            pid_ = -1;
            return false;
        }
        std::string line = readLine(120.0);
        if (line.rfind("port ", 0) != 0)
            return false;
        port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + 5));
        return port_ != 0;
    }

    std::uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** Send one command line; return the one-line reply. */
    std::string
    command(const std::string &line, double timeout_s = 60.0)
    {
        std::string msg = line + "\n";
        if (::write(in_, msg.data(), msg.size()) !=
            static_cast<ssize_t>(msg.size()))
            return "";
        return readLine(timeout_s);
    }

    /** Ask the server to quit and reap it (killed if it hangs). */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        if (in_ >= 0) {
            (void)!::write(in_, "quit\n", 5);
            ::close(in_);
            in_ = -1;
        }
        int status = 0;
        for (int i = 0; i < 3000; ++i) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
            pid_ = -1;
        }
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
    }

  private:
    std::string
    readLine(double timeout_s)
    {
        std::uint64_t deadline =
            monoNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
        for (;;) {
            auto nl = pending_.find('\n');
            if (nl != std::string::npos) {
                std::string line = pending_.substr(0, nl);
                pending_.erase(0, nl + 1);
                return line;
            }
            std::uint64_t now = monoNs();
            if (now >= deadline)
                return "";
            pollfd p{out_, POLLIN, 0};
            int ms = static_cast<int>((deadline - now) / 1000000 + 1);
            if (::poll(&p, 1, ms) <= 0)
                continue;
            char buf[4096];
            ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0)
                return "";
            pending_.append(buf, static_cast<std::size_t>(n));
        }
    }

    pid_t pid_ = -1;
    int in_ = -1;
    int out_ = -1;
    std::uint16_t port_ = 0;
    std::string pending_;
};

/** Threads of a process right now (/proc/<pid>/stat field 20). */
int
threadCount(pid_t pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
    std::string s((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
    auto rp = s.rfind(')');
    if (rp == std::string::npos)
        return 0;
    std::istringstream rest(s.substr(rp + 2));
    std::string tok;
    for (int i = 3; i <= 20 && rest >> tok; ++i)
        if (i == 20)
            return std::atoi(tok.c_str());
    return 0;
}

// ---------------------------------------------------- the generator

enum class Outcome : std::uint8_t
{
    Pending,
    Ok,
    FellBack,
    Violation,
    Rejected,
    Mismatch,
    Lost,
};

struct Req
{
    std::uint64_t dueNs = 0;
    std::uint64_t sentNs = 0;
    std::uint64_t recvNs = 0;
    std::uint32_t key = 0;
    std::uint8_t tenant = 0; //!< 0 = anonymous, 1.. = t0..
    std::uint8_t conn = 0;
    Outcome outcome = Outcome::Pending;
    bool closed = false; //!< Sent by a closed window, not a schedule.
    bool hit = false;
    bool escalated = false;
    double latency = 0.0; //!< Modeled, from the response.
    double cost = 0.0;
};

/** One Poisson stream of a phase. */
struct Stream
{
    std::uint8_t tenant = 0;
    double rate = 0.0;
    KeySource *keys = nullptr;
    std::vector<std::uint8_t> conns;
};

/** A closed window: `window` requests always outstanding. */
struct Window
{
    std::uint8_t tenant = 0;
    std::size_t size = 0;
    KeySource *keys = nullptr;
    std::vector<std::uint8_t> conns;
};

struct Phase
{
    double duration = 0.0;
    std::vector<Stream> streams;
    std::optional<Window> window;
    std::uint64_t scheduleSeed = 0;
};

/** Requests [begin, end) of one phase, and when it ran. */
struct PhaseRun
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    double clientCpu = 0.0; //!< Generator CPU seconds in the phase.
    int threadsPeak = 0;
};

const char *kTenantNames[] = {"", "t0", "t1", "t2"};

class Generator
{
  public:
    Generator(const Oracle &oracle, pid_t server_pid)
        : oracle_(oracle), serverPid_(server_pid)
    {
    }

    ~Generator()
    {
        if (epfd_ >= 0)
            ::close(epfd_);
        if (timerfd_ >= 0)
            ::close(timerfd_);
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    bool
    connect(std::uint16_t port)
    {
        epfd_ = epoll_create1(EPOLL_CLOEXEC);
        timerfd_ = timerfd_create(CLOCK_MONOTONIC,
                                  TFD_NONBLOCK | TFD_CLOEXEC);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kTimerTag;
        epoll_ctl(epfd_, EPOLL_CTL_ADD, timerfd_, &ev);
        for (std::size_t c = 0; c < kConnections; ++c) {
            std::string err;
            int fd = net::tcpConnect("127.0.0.1", port, err);
            if (fd < 0)
                return false;
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
            conns_.push_back(Conn{});
            conns_.back().fd.reset(fd);
            ev.events = EPOLLIN;
            ev.data.u64 = c;
            epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
        }
        return true;
    }

    const std::vector<Req> &requests() const { return reqs_; }
    std::size_t mismatches() const { return mismatches_; }

    PhaseRun
    run(const Phase &phase)
    {
        PhaseRun run;
        run.begin = reqs_.size();
        const std::uint64_t start = monoNs() + 1000000;
        const std::uint64_t stop =
            start + static_cast<std::uint64_t>(phase.duration * 1e9);

        // The open-loop schedule, merged across streams.
        std::vector<std::size_t> schedule;
        for (std::size_t s = 0; s < phase.streams.size(); ++s) {
            const Stream &st = phase.streams[s];
            std::vector<double> times = poissonSchedule(
                st.rate, phase.duration, phase.scheduleSeed, s + 1);
            for (std::size_t i = 0; i < times.size(); ++i) {
                Req r;
                r.dueNs = start + static_cast<std::uint64_t>(times[i] * 1e9);
                r.key = st.keys->next();
                r.tenant = st.tenant;
                r.conn = st.conns[i % st.conns.size()];
                schedule.push_back(reqs_.size());
                reqs_.push_back(r);
            }
        }
        std::stable_sort(schedule.begin(), schedule.end(),
                         [&](std::size_t a, std::size_t b) {
                             return reqs_[a].dueNs < reqs_[b].dueNs;
                         });

        double cpu0 = cpuSeconds();
        std::size_t next = 0;
        std::size_t outstanding = 0;
        std::size_t window_rr = 0;
        auto issue = [&](std::size_t idx, std::uint64_t now) {
            Req &r = reqs_[idx];
            serving::ServiceRequest req;
            req.id = idx + 1;
            req.payload = keyPayload(r.key);
            req.tier.objective = keyObjective(r.key);
            req.tier.tolerance = keyTolerance(r.key);
            req.tenant = kTenantNames[r.tenant];
            (void)net::encodeRequestFrame(req, conns_[r.conn].out);
            r.sentNs = now;
            ++outstanding;
        };
        auto open_window_slot = [&](std::uint64_t now) {
            const Window &w = *phase.window;
            Req r;
            r.dueNs = now;
            r.closed = true;
            r.key = w.keys->next();
            r.tenant = w.tenant;
            r.conn = w.conns[window_rr++ % w.conns.size()];
            reqs_.push_back(r);
            issue(reqs_.size() - 1, now);
        };
        if (phase.window) {
            for (std::size_t i = 0; i < phase.window->size; ++i)
                open_window_slot(start);
        }

        const std::uint64_t give_up = stop + 20000000000ull;
        std::uint64_t last_sample = 0;
        epoll_event events[16];
        for (;;) {
            std::uint64_t now = monoNs();
            while (next < schedule.size() &&
                   reqs_[schedule[next]].dueNs <= now)
                issue(schedule[next++], now);
            for (Conn &c : conns_)
                flush(c);
            if (now - last_sample > 20000000) {
                run.threadsPeak =
                    std::max(run.threadsPeak, threadCount(serverPid_));
                last_sample = now;
            }
            if (next == schedule.size() && outstanding == 0 &&
                (!phase.window || now >= stop))
                break;
            if (now > give_up)
                break;

            int timeout_ms = 50;
            if (next < schedule.size()) {
                itimerspec its{};
                std::uint64_t due = reqs_[schedule[next]].dueNs;
                its.it_value.tv_sec = static_cast<time_t>(due / 1000000000);
                its.it_value.tv_nsec = static_cast<long>(due % 1000000000);
                timerfd_settime(timerfd_, TFD_TIMER_ABSTIME, &its, nullptr);
            }
            int n = epoll_wait(epfd_, events, 16, timeout_ms);
            for (int i = 0; i < n; ++i) {
                if (events[i].data.u64 == kTimerTag) {
                    std::uint64_t expirations = 0;
                    (void)!::read(timerfd_, &expirations,
                                  sizeof expirations);
                    continue;
                }
                Conn &c = conns_[events[i].data.u64];
                if (events[i].events & EPOLLOUT)
                    flush(c);
                if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
                    std::size_t done = receive(c);
                    outstanding -= done;
                    if (phase.window && done > 0) {
                        std::uint64_t t = monoNs();
                        // Refill the window for each completed window
                        // request while the phase lasts.
                        for (std::size_t k = 0; k < windowDone_; ++k)
                            if (t < stop)
                                open_window_slot(t);
                    }
                    windowDone_ = 0;
                }
            }
        }
        // Anything unanswered by the deadline is lost.
        for (std::size_t i = run.begin; i < reqs_.size(); ++i)
            if (reqs_[i].outcome == Outcome::Pending)
                reqs_[i].outcome = Outcome::Lost;
        run.end = reqs_.size();
        run.startNs = start;
        run.endNs = std::max(stop, monoNs());
        run.clientCpu = cpuSeconds() - cpu0;
        return run;
    }

  private:
    static constexpr std::uint64_t kTimerTag = ~0ull;

    struct Conn
    {
        net::ScopedFd fd;
        net::Bytes out;
        std::size_t outOff = 0;
        bool wantWrite = false;
        net::Bytes in;
    };

    void
    flush(Conn &c)
    {
        while (c.outOff < c.out.size()) {
            ssize_t n = ::send(c.fd.get(), c.out.data() + c.outOff,
                               c.out.size() - c.outOff, MSG_NOSIGNAL);
            if (n > 0) {
                c.outOff += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        if (c.outOff == c.out.size()) {
            c.out.clear();
            c.outOff = 0;
        }
        bool want = !c.out.empty();
        if (want != c.wantWrite) {
            epoll_event ev{};
            ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
            ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
            epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd.get(), &ev);
            c.wantWrite = want;
        }
    }

    /** Read and settle every complete response; returns how many. */
    std::size_t
    receive(Conn &c)
    {
        std::uint8_t buf[65536];
        for (;;) {
            ssize_t n = ::recv(c.fd.get(), buf, sizeof buf, 0);
            if (n > 0) {
                c.in.insert(c.in.end(), buf, buf + n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        const std::uint64_t now = monoNs();
        std::size_t off = 0, done = 0;
        for (;;) {
            net::FrameDecode d =
                net::decodeFrame(c.in.data() + off, c.in.size() - off);
            if (d.status == net::CodecStatus::NeedMore)
                break;
            if (!d.ok() || d.type != net::FrameType::Response ||
                d.response.id == 0 || d.response.id > reqs_.size()) {
                ++mismatches_;
                c.in.clear();
                return done;
            }
            Req &r = reqs_[d.response.id - 1];
            if (r.outcome != Outcome::Pending) {
                ++mismatches_; // A second answer to one request.
            } else {
                settle(r, d, c.in.data() + off, now);
                ++done;
                if (r.closed)
                    ++windowDone_;
            }
            off += d.frameBytes;
        }
        c.in.erase(c.in.begin(),
                   c.in.begin() + static_cast<std::ptrdiff_t>(off));
        return done;
    }

    void
    settle(Req &r, const net::FrameDecode &d, const std::uint8_t *frame,
           std::uint64_t now)
    {
        const net::NetResponse &resp = d.response;
        r.recvNs = now;
        r.hit = resp.servedFromCache;
        r.escalated = resp.escalated;
        r.latency = resp.latencySeconds;
        r.cost = resp.costDollars;
        if (resp.status == net::WireStatus::Rejected) {
            r.outcome = Outcome::Rejected;
            return;
        }
        if (!oracle_.matches(r.key, resp, frame, d.frameBytes)) {
            r.outcome = Outcome::Mismatch;
            if (++mismatches_ <= 3) {
                const OracleEntry &e = oracle_.at(r.key);
                std::fprintf(stderr,
                             "mismatch key=%u status=%d/%d hit=%d "
                             "esc=%d/%d lat=%.9g/%.9g conf=%.9g/%.9g "
                             "output='%s'/'%s' note='%s'/'%s'\n",
                             r.key, static_cast<int>(resp.status),
                             static_cast<int>(e.status),
                             resp.servedFromCache, resp.escalated,
                             e.escalated, resp.latencySeconds, e.latency,
                             resp.confidence, e.confidence,
                             resp.output.c_str(), e.output.c_str(),
                             resp.statusNote.c_str(), e.note.c_str());
            }
            return;
        }
        switch (resp.status) {
          case net::WireStatus::Ok:
            r.outcome = Outcome::Ok;
            break;
          case net::WireStatus::FellBack:
            r.outcome = Outcome::FellBack;
            break;
          default:
            r.outcome = Outcome::Violation;
            break;
        }
    }

    const Oracle &oracle_;
    pid_t serverPid_;
    int epfd_ = -1;
    int timerfd_ = -1;
    std::vector<Conn> conns_;
    std::vector<Req> reqs_;
    std::size_t mismatches_ = 0;
    /** Window requests completed by the last receive(). */
    std::size_t windowDone_ = 0;
};

/** One synchronous request over a fresh connection (boot probe). */
bool
probe(std::uint16_t port, const Oracle &oracle, std::uint32_t key)
{
    std::string err;
    net::ScopedFd fd(net::tcpConnect("127.0.0.1", port, err));
    if (!fd.valid())
        return false;
    serving::ServiceRequest req;
    req.id = 1;
    req.payload = keyPayload(key);
    req.tier.objective = keyObjective(key);
    req.tier.tolerance = keyTolerance(key);
    net::Bytes frame;
    if (net::encodeRequestFrame(req, frame) != net::CodecStatus::Ok ||
        !net::sendAll(fd.get(), frame.data(), frame.size()))
        return false;
    net::Bytes in;
    std::uint8_t buf[4096];
    for (;;) {
        long n = net::recvSome(fd.get(), buf, sizeof buf);
        if (n <= 0)
            return false;
        in.insert(in.end(), buf, buf + n);
        net::FrameDecode d = net::decodeFrame(in.data(), in.size());
        if (d.status == net::CodecStatus::NeedMore)
            continue;
        if (!d.ok())
            return false;
        return oracle.matches(key, d.response, in.data(), d.frameBytes);
    }
}

// ---------------------------------------------------- measurement

struct Context
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string exe;
    std::string cache; //!< The cache root (see buildCacheDir).
    std::string runDir;
    const Oracle *oracle = nullptr;
    /** Generator and server confined to disjoint CPUs. */
    bool pinned = false;
};

std::vector<std::string>
serverArgs(const Context &ctx, bool traced)
{
    std::vector<std::string> args = {
        ctx.exe, "serve", "--stack",
        ctx.spec->stack == StackKind::Asr ? "asr" : "ic", "--cache",
        ctx.cache};
    if (ctx.spec->fair)
        args.push_back("--fair");
    if (traced)
        args.push_back("--traced");
    return args;
}

/** One part of the pinned-rate phase, with server stats around it. */
struct Part
{
    PhaseRun run;
    Fields before, after;
};

/** Everything one measured server lifetime produced. */
struct Measured
{
    std::vector<Req> reqs;
    /** The pinned-rate phase's parts: timing metrics are medians over
     * parts, so one slow stretch of a noisy host moves them less. */
    std::vector<Part> parts;
    /** Server stats before the first part and at the very end. */
    Fields before, end;
    double maxRps = 0.0;
    std::size_t mismatches = 0;
    std::vector<CallSpan> spans;
    Fields inproc;
    /** A no-repeat key stream ran out, so keys repeated and could hit
     * the cache: the run no longer measures its workload. */
    bool keysWrapped = false;
    bool ok = false;
};

/** Workload phase plans over a generator's key sources. */
class Plan
{
  public:
    Plan(const Context &ctx, std::uint64_t salt) : ctx_(ctx)
    {
        const WorkloadSpec &w = *ctx.spec;
        std::uint64_t seed = ctx.seed * 1000003ull + salt;
        if (w.fair) {
            for (int t = 0; t < 3; ++t)
                keys_.push_back(keySource(w, kTenantNames[t + 1], seed));
        } else {
            keys_.push_back(keySource(w, "", seed));
        }
        seed_ = seed;
    }

    /** The workload's steady mix for `duration` seconds. */
    Phase
    steady(double duration, std::uint64_t stream)
    {
        const WorkloadSpec &w = *ctx_.spec;
        Phase p;
        p.duration = duration;
        p.scheduleSeed = seed_ * 31 + stream;
        if (w.fair) {
            p.window = Window{1, w.window, &keys_[0], {0, 1}};
            p.streams.push_back(Stream{2, w.pinnedRps, &keys_[1], {2}});
            p.streams.push_back(Stream{3, w.pinnedRps, &keys_[2], {3}});
        } else {
            p.streams.push_back(
                Stream{0, w.pinnedRps, &keys_[0], {0, 1, 2, 3}});
        }
        return p;
    }

    /** The workload's keys under a closed window that keeps the
     * server saturated (the max_rps phase). */
    Phase
    saturate(double duration)
    {
        Phase p;
        p.duration = duration;
        p.window = Window{0, ctx_.spec->window, &keys_[0], {0, 1, 2, 3}};
        return p;
    }

    bool
    keysWrapped() const
    {
        return std::any_of(keys_.begin(), keys_.end(),
                           [](const KeySource &k) { return k.wrapped(); });
    }

  private:
    const Context &ctx_;
    std::vector<KeySource> keys_;
    std::uint64_t seed_ = 0;
};

/** One phase's answered latencies, ms from scheduled send, sorted. */
std::vector<double>
latenciesMs(const std::vector<Req> &reqs, const PhaseRun &run,
            bool victims_only)
{
    std::vector<double> out;
    for (std::size_t i = run.begin; i < run.end; ++i) {
        const Req &r = reqs[i];
        if (victims_only && r.tenant <= 1)
            continue;
        if (r.outcome == Outcome::Ok || r.outcome == Outcome::FellBack)
            out.push_back(seconds(r.recvNs - r.dueNs) * 1e3);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
answered(const std::vector<Req> &reqs, const PhaseRun &run)
{
    std::size_t n = 0;
    for (std::size_t i = run.begin; i < run.end; ++i)
        if (reqs[i].outcome == Outcome::Ok ||
            reqs[i].outcome == Outcome::FellBack)
            ++n;
    return n;
}

/** The pinned phase's request indices, over all its parts. */
std::vector<std::size_t>
pinnedRequests(const std::vector<Part> &parts)
{
    std::vector<std::size_t> out;
    for (const Part &p : parts)
        for (std::size_t i = p.run.begin; i < p.run.end; ++i)
            out.push_back(i);
    return out;
}

/** True when monotonic time `ns` falls inside a pinned part. */
bool
inPinnedPart(const std::vector<Part> &parts, std::uint64_t ns)
{
    for (const Part &p : parts)
        if (ns >= p.run.startNs && ns <= p.run.endNs)
            return true;
    return false;
}

/** How much a server stats field grew over the pinned parts. */
double
partsDelta(const std::vector<Part> &parts, const std::string &name)
{
    double d = 0.0;
    for (const Part &p : parts)
        d += field(p.after, name) - field(p.before, name);
    return d;
}

/**
 * One server lifetime: warm-up, then the pinned-rate phase in parts,
 * each followed (on open-loop workloads) by a saturation part.
 */
Measured
measure(const Context &ctx, ServerProc &server, bool traced,
        std::uint64_t salt)
{
    Measured m;
    const WorkloadSpec &w = *ctx.spec;
    Generator gen(*ctx.oracle, server.pid());
    if (!gen.connect(server.port()))
        return m;
    Plan plan(ctx, salt);

    // Untimed warm-up under load: the first run after idle is an
    // outlier (4x p99), so nothing measured runs cold.
    gen.run(plan.steady(1.5, 1));

    // The pinned phase comes first: on ic_hot the saturation phase
    // would otherwise warm the cache to ~100% hits, whose ~0.1 ms
    // round trips are mostly wake-up jitter.
    m.before = parseFields(server.command("stats"));
    const double part_s =
        (w.fair ? ctx.seconds : 0.5 * ctx.seconds) / kPinnedParts;
    std::vector<double> rates;
    for (std::size_t k = 0; k < kPinnedParts; ++k) {
        Part part;
        part.before = k == 0 ? m.before : m.parts.back().after;
        part.run = gen.run(plan.steady(part_s, 2 + k));
        part.after = parseFields(server.command("stats"));
        // Under the flood the pool is saturated, so the completion
        // rate is the capacity for that mix.
        rates.push_back(
            static_cast<double>(answered(gen.requests(), part.run)) /
            part_s);
        m.parts.push_back(std::move(part));
    }
    if (!w.fair) {
        // Capacity: the completion rate with the server kept
        // saturated by a closed window.
        rates.clear();
        for (std::size_t k = 0; k < kPinnedParts; ++k) {
            PhaseRun run = gen.run(plan.saturate(part_s));
            rates.push_back(
                static_cast<double>(answered(gen.requests(), run)) /
                seconds(run.endNs - run.startNs));
        }
    }
    m.maxRps = median(rates);

    if (traced) {
        std::string spans_path = ctx.runDir + "/spans.bin";
        Fields sp = parseFields(server.command("spans " + spans_path));
        std::ifstream is(spans_path, std::ios::binary);
        m.spans.resize(static_cast<std::size_t>(field(sp, "count")));
        is.read(reinterpret_cast<char *>(m.spans.data()),
                static_cast<std::streamsize>(m.spans.size() *
                                             sizeof(CallSpan)));
        // The in-process pass replays the pinned phase's first keys.
        std::string keys_path = ctx.runDir + "/inproc_keys.bin";
        {
            std::ofstream os(keys_path, std::ios::binary | std::ios::trunc);
            std::vector<std::size_t> pinned = pinnedRequests(m.parts);
            pinned.resize(std::min<std::size_t>(pinned.size(), 1500));
            for (std::size_t i : pinned) {
                std::uint32_t k = gen.requests()[i].key;
                os.write(reinterpret_cast<const char *>(&k), sizeof k);
            }
        }
        m.inproc = parseFields(server.command("inproc " + keys_path, 170.0));
    }
    m.end = parseFields(server.command("stats"));
    m.mismatches = gen.mismatches() +
                   static_cast<std::size_t>(field(m.inproc, "mismatches"));
    m.keysWrapped = plan.keysWrapped();
    m.reqs = gen.requests();
    m.ok = true;
    return m;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Failed requests of the measured phases (everything after the
 * warm-up), plus oracle mismatches the outcomes do not show. */
std::size_t
failures(const Measured &m)
{
    std::size_t n = m.mismatches;
    for (std::size_t i = m.parts.front().run.begin; i < m.reqs.size();
         ++i) {
        Outcome o = m.reqs[i].outcome;
        if (o == Outcome::Rejected || o == Outcome::Violation ||
            o == Outcome::Lost)
            ++n;
    }
    return n;
}

std::size_t
attemptedCount(const Measured &m)
{
    return m.reqs.size() - m.parts.front().run.begin;
}

/** Median over the pinned phase's parts of each part's nearest-rank
 * latency percentile `p`, ms from scheduled send. */
double
partPercentile(const Measured &m, bool victims_only, double p)
{
    std::vector<double> per_part;
    for (const Part &part : m.parts) {
        std::vector<double> lat = latenciesMs(m.reqs, part.run, victims_only);
        if (!lat.empty())
            per_part.push_back(percentileSorted(lat, p));
    }
    return median(std::move(per_part));
}

double
lagP99Ms(const Measured &m)
{
    std::vector<double> lag;
    for (std::size_t i : pinnedRequests(m.parts))
        if (!m.reqs[i].closed)
            lag.push_back(seconds(m.reqs[i].sentNs - m.reqs[i].dueNs) *
                          1e3);
    std::sort(lag.begin(), lag.end());
    return lag.empty() ? 0.0 : percentileSorted(lag, 99.0);
}

double
clientCpuFrac(const Measured &m)
{
    double cpu = 0.0, wall = 0.0;
    for (const Part &p : m.parts) {
        cpu += p.run.clientCpu;
        wall += seconds(p.run.endNs - p.run.startNs);
    }
    return wall > 0.0 ? cpu / wall : 0.0;
}

std::vector<Metric>
endToEnd(const Context &ctx, const Measured &m, double setup_s)
{
    const WorkloadSpec &w = *ctx.spec;
    auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    std::vector<double> cpu;
    for (const Part &part : m.parts) {
        cpu.push_back(frac(field(part.after, "proc.cpu_us") -
                               field(part.before, "proc.cpu_us"),
                           field(part.after, "door.completed") -
                               field(part.before, "door.completed")));
    }
    // The SLO population: every attempted request of the measured
    // tenants; a failure or a late answer is a miss.
    std::size_t population = 0, within = 0;
    double err = 0.0, lat_sum = 0.0, ref_lat = 0.0, cost_sum = 0.0,
           ref_cost = 0.0;
    std::size_t served = 0;
    for (std::size_t i : pinnedRequests(m.parts)) {
        const Req &r = m.reqs[i];
        bool ok = r.outcome == Outcome::Ok || r.outcome == Outcome::FellBack;
        if (!w.fair || r.tenant > 1) {
            ++population;
            if (ok && seconds(r.recvNs - r.dueNs) * 1e3 <= w.limitMs)
                ++within;
        }
        if (!ok)
            continue;
        std::uint32_t p = keyPayload(r.key);
        err += ctx.oracle->at(r.key).error;
        lat_sum += r.latency;
        cost_sum += r.cost;
        ref_lat += ctx.oracle->refLatency(p);
        ref_cost += ctx.oracle->refCost(p);
        ++served;
    }
    return {
        {"setup_s", setup_s, "s"},
        {"max_rps", m.maxRps, "1/s"},
        {"p50_ms", partPercentile(m, w.fair, 50.0), "ms"},
        {"slo_attain",
         frac(static_cast<double>(within), static_cast<double>(population)),
         "frac"},
        {"cpu_us_per_req", median(cpu), "us"},
        {"served_error", frac(err, static_cast<double>(served)), "frac"},
        {"modeled_latency_ratio", frac(lat_sum, ref_lat), "frac"},
        {"modeled_cost_ratio", frac(cost_sum, ref_cost), "frac"},
        {"rss_mb", field(m.end, "proc.maxrss_kb") / 1024.0, "MB"},
    };
}

/** Per-request join of version-call spans, pinned phase only. */
struct Joined
{
    std::vector<double> preUs, postUs, execUs, victimPreUs;
    std::size_t executed = 0, escalated = 0, races = 0;
    std::size_t spansInPhase = 0;
};

Joined
joinSpans(const Context &ctx, const Measured &m)
{
    Joined j;
    struct Window
    {
        std::uint64_t first = ~0ull, last = 0;
    };
    std::map<std::uint32_t, std::vector<std::size_t>> by_payload;
    for (std::size_t i : pinnedRequests(m.parts)) {
        const Req &r = m.reqs[i];
        if (r.hit || !(r.outcome == Outcome::Ok ||
                       r.outcome == Outcome::FellBack))
            continue;
        ++j.executed;
        j.escalated += r.escalated ? 1 : 0;
        auto policy = static_cast<core::PolicyKind>(
            ctx.oracle->at(r.key).policy);
        j.races += (policy == core::PolicyKind::ConcurrentEt ||
                    policy == core::PolicyKind::ConcurrentFo)
                       ? 1
                       : 0;
        by_payload[keyPayload(r.key)].push_back(i);
    }
    std::map<std::size_t, Window> windows;
    for (const CallSpan &s : m.spans) {
        if (!inPinnedPart(m.parts, s.startNs))
            continue;
        ++j.spansInPhase;
        auto it = by_payload.find(s.payload);
        if (it == by_payload.end())
            continue;
        std::size_t match = 0, matches = 0;
        for (std::size_t i : it->second) {
            const Req &r = m.reqs[i];
            if (r.sentNs <= s.startNs && s.endNs <= r.recvNs) {
                match = i;
                ++matches;
            }
        }
        if (matches != 1)
            continue; // Ambiguous or unmatched: left out.
        Window &w = windows[match];
        w.first = std::min(w.first, s.startNs);
        w.last = std::max(w.last, s.endNs);
    }
    for (const auto &[i, w] : windows) {
        const Req &r = m.reqs[i];
        // pre + exec + post tile the round trip from the actual send.
        double pre = seconds(w.first - r.sentNs) * 1e6;
        j.preUs.push_back(pre);
        j.postUs.push_back(seconds(r.recvNs - w.last) * 1e6);
        j.execUs.push_back(seconds(w.last - w.first) * 1e6);
        if (r.tenant != 1)
            j.victimPreUs.push_back(pre);
    }
    return j;
}

std::vector<Metric>
perLayer(const Context &ctx, const Measured &m, double untraced_rps)
{
    const WorkloadSpec &w = *ctx.spec;
    auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    auto delta = [&](const std::string &name) {
        return partsDelta(m.parts, name);
    };
    Joined j = joinSpans(ctx, m);

    std::vector<double> hit_rtt;
    std::size_t t0_done = 0, all_done = 0;
    int threads_peak = 0;
    for (const Part &p : m.parts)
        threads_peak = std::max(threads_peak, p.run.threadsPeak);
    for (std::size_t i : pinnedRequests(m.parts)) {
        const Req &r = m.reqs[i];
        if (r.outcome != Outcome::Ok && r.outcome != Outcome::FellBack)
            continue;
        ++all_done;
        t0_done += r.tenant == 1 ? 1 : 0;
        if (r.hit)
            hit_rtt.push_back(seconds(r.recvNs - r.sentNs) * 1e6);
    }

    // Version-call costs over the pinned phase, by kind of version.
    double asr_us = 0, asr_work = 0, fl_us = 0, q8_us = 0, ic_macs = 0;
    std::size_t asr_n = 0, fl_n = 0, q8_n = 0;
    for (const CallSpan &s : m.spans) {
        if (!inPinnedPart(m.parts, s.startNs))
            continue;
        double us = seconds(s.endNs - s.startNs) * 1e6;
        if (w.stack == StackKind::Asr) {
            asr_us += us;
            asr_work += static_cast<double>(s.workUnits);
            ++asr_n;
        } else if (field(m.end, "version." + std::to_string(s.version) +
                                    ".q8") > 0.0) {
            q8_us += us;
            ic_macs += static_cast<double>(s.workUnits);
            ++q8_n;
        } else {
            fl_us += us;
            ic_macs += static_cast<double>(s.workUnits);
            ++fl_n;
        }
    }
    auto n = [](std::size_t v) { return static_cast<double>(v); };
    double accepted = delta("server.accepted");
    return {
        {"net.codec_ns", field(m.inproc, "net.codec_ns"), "ns"},
        {"net.bytes_per_req",
         frac(delta("server.bytes_read") + delta("server.bytes_written"),
              accepted),
         "B"},
        {"serve.pre_us", median(j.preUs), "us"},
        {"serve.exec_us", median(j.execUs), "us"},
        {"serve.post_us", median(j.postUs), "us"},
        {"serve.hit_rtt_us", median(hit_rtt), "us"},
        {"door.rejected",
         field(m.end, "door.rejected") - field(m.before, "door.rejected"),
         "count"},
        {"tenant.victim_pre_us", median(j.victimPreUs), "us"},
        {"tenant.flood_share",
         w.fair ? frac(n(t0_done), n(all_done)) * 3.0 : 0.0, "frac"},
        {"cache.hit_frac", frac(delta("cache.hits"), delta("cache.lookups")),
         "frac"},
        {"cache.lookup_ns", field(m.inproc, "cache.lookup_ns"), "ns"},
        {"cache.insert_ns", field(m.inproc, "cache.insert_ns"), "ns"},
        {"cache.evictions",
         field(m.end, "cache.evictions") - field(m.before, "cache.evictions"),
         "count"},
        {"tier.versions_per_req", frac(n(j.spansInPhase), n(j.executed)),
         "count"},
        {"tier.escalation_frac", frac(n(j.escalated), n(j.executed)),
         "frac"},
        {"tier.race_frac", frac(n(j.races), n(j.executed)), "frac"},
        {"tier.overhead_us", field(m.inproc, "tier.overhead_us"), "us"},
        {"tier.rule_match_ns", field(m.inproc, "tier.rule_match_ns"), "ns"},
        {"obs.cost_us", field(m.inproc, "obs.cost_us"), "us"},
        {"asr.decode_us", frac(asr_us, n(asr_n)), "us"},
        {"asr.work_units_per_call", frac(asr_work, n(asr_n)), "count"},
        {"ic.forward_us.float", frac(fl_us, n(fl_n)), "us"},
        {"ic.forward_us.q8", frac(q8_us, n(q8_n)), "us"},
        {"ic.macs_per_call", frac(ic_macs, n(fl_n + q8_n)), "count"},
        {"proc.ctx_switches_per_req",
         frac(delta("proc.ctx_switches"), delta("door.completed")), "count"},
        {"proc.threads_peak", static_cast<double>(threads_peak),
         "count"},
        {"lat.p95_ms", partPercentile(m, w.fair, 95.0), "ms"},
        {"lat.p99_ms", partPercentile(m, w.fair, 99.0), "ms"},
        {"load.lag_ms", lagP99Ms(m), "ms"},
        {"load.client_cpu_frac", clientCpuFrac(m), "frac"},
        {"trace.overhead_frac",
         untraced_rps > 0.0 ? 1.0 - m.maxRps / untraced_rps : 0.0, "frac"},
    };
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

/** Boot a server and time it up to its first served response. */
std::optional<double>
boot(const Context &ctx, ServerProc &server, bool traced)
{
    std::uint64_t t0 = monoNs();
    if (!server.start(serverArgs(ctx, traced)))
        return std::nullopt;
    std::uint32_t key = makeKey(0, 0);
    if (!probe(server.port(), *ctx.oracle, key))
        return std::nullopt;
    return seconds(monoNs() - t0);
}

} // namespace

int
driveMain(int argc, char **argv)
{
    common::CliArgs args(argc, argv, {"workload", "seed", "seconds",
                                      "trace", "cache", "run-dir"});
    Context ctx;
    ctx.spec = findWorkload(args.getString("workload", ""));
    if (ctx.spec == nullptr) {
        std::fprintf(stderr, "ttbench drive: unknown --workload\n");
        return 2;
    }
    ctx.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    ctx.seconds = args.getDouble("seconds", 10.0);
    ctx.cache = args.getString("cache", "");
    ctx.runDir = args.getString("run-dir", ".");
    ctx.exe = selfExe();
    bool trace = args.getInt("trace", 0) != 0;
    ctx.pinned = confineToCpus(static_cast<int>(kServerThreads), 1);

    Oracle oracle;
    std::string build_dir = buildCacheDir(ctx.cache);
    if (!isPrepared(build_dir) ||
        !oracle.load(ctx.spec->stack, build_dir)) {
        std::fprintf(stderr, "ttbench drive: cache '%s' is not prepared; "
                             "refusing to time a cold cache\n",
                     ctx.cache.c_str());
        return 2;
    }
    ctx.oracle = &oracle;

    // Set-up: several boots, each timed to its first served
    // response; the last server stays up for the measured run.
    std::vector<double> boots;
    ServerProc server;
    for (int b = 0; b < (trace ? 1 : kSetupBoots); ++b) {
        server.stop();
        std::optional<double> t = boot(ctx, server, false);
        if (!t) {
            std::fprintf(stderr, "ttbench drive: server boot failed\n");
            return 1;
        }
        boots.push_back(*t);
    }
    Measured m = measure(ctx, server, false, 0);
    server.stop();
    if (!m.ok) {
        std::fprintf(stderr, "ttbench drive: connect failed\n");
        return 1;
    }

    // Every server lifetime of the run counts towards correctness: a
    // late generator or an exhausted key stream makes it invalid, and
    // its failures and oracle mismatches are reported.
    std::vector<const Measured *> lifetimes = {&m};
    std::vector<Metric> metrics;
    Measured t;
    if (!trace) {
        metrics = endToEnd(ctx, m, median(boots));
    } else {
        ServerProc traced_server;
        if (!boot(ctx, traced_server, true)) {
            std::fprintf(stderr, "ttbench drive: traced boot failed\n");
            return 1;
        }
        t = measure(ctx, traced_server, true, 1);
        traced_server.stop();
        if (!t.ok)
            return 1;
        metrics = perLayer(ctx, t, m.maxRps);
        lifetimes.push_back(&t);
    }
    double lag = 0.0;
    bool wrapped = false;
    std::size_t attempted = 0, failed = 0, mismatches = 0;
    for (const Measured *run : lifetimes) {
        lag = std::max(lag, lagP99Ms(*run));
        wrapped = wrapped || run->keysWrapped;
        attempted += attemptedCount(*run);
        failed += failures(*run);
        mismatches += run->mismatches;
    }
    bool valid = lag <= kMaxLagMs && !wrapped;

    // Self-description of the run, one line before the result.
    std::fprintf(stdout,
                 "run workload=%s seed=%llu seconds=%g trace=%d "
                 "server_threads=%zu connections=%zu build=%s "
                 "compiler=\"%s\" pinned=%d lag_ms=%.4f "
                 "client_cpu_frac=%.4f keys_wrapped=%d valid=%d\n",
                 ctx.spec->name.c_str(),
                 static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                 trace ? 1 : 0, kServerThreads, kConnections,
                 PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                 ctx.pinned ? 1 : 0, lag, clientCpuFrac(m),
                 wrapped ? 1 : 0, valid ? 1 : 0);
    bool correct = valid && mismatches == 0;
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace perfbench

#include "net/server.hh"

#include <thread>
#include <utility>

#include "common/logging.hh"
#include "obs/attribution.hh"

namespace toltiers::net {

namespace {

/** recv(2) chunk size for the connection read loop. */
constexpr std::size_t kReadChunk = 16 * 1024;

} // namespace

TierServer::TierServer(core::TierFrontDoor &door, ServerConfig cfg)
    : door_(door), cfg_(std::move(cfg))
{
    TT_ASSERT(cfg_.maxFrameBytes > 0,
              "server needs a positive frame bound");
    if (cfg_.maxFrameBytes > kMaxFrameBytes)
        cfg_.maxFrameBytes = kMaxFrameBytes;
    if (cfg_.metrics != nullptr) {
        // Pre-register the series so an idle server exports zeros;
        // the request path then only updates these handles.
        obs::Registry &reg = *cfg_.metrics;
        connections_.exported =
            &reg.counter("tt_net_connections_total", {},
                         "Connections accepted by the TCP front end");
        accepted_.exported =
            &reg.counter("tt_net_accepted_total", {},
                         "Well-formed request frames handed to the "
                         "front door");
        completed_.exported =
            &reg.counter("tt_net_completed_total", {},
                         "Response frames written back to clients");
        rejected_.exported = &reg.counter(
            "tt_net_rejected_total", {},
            "Request frames shed by the bounded front door");
        aborted_.exported =
            &reg.counter("tt_net_aborted_total", {},
                         "Requests owed a response when their "
                         "connection died");
        badFrames_.exported =
            &reg.counter("tt_net_bad_frames_total", {},
                         "Malformed, truncated, or oversized frames");
        bytesRead_.exported =
            &reg.counter("tt_net_bytes_read_total", {},
                         "Bytes read off client sockets");
        bytesWritten_.exported =
            &reg.counter("tt_net_bytes_written_total", {},
                         "Bytes written to client sockets");
        netRead_ = &obs::stageHistogram(reg, obs::stage::kNetRead);
        netWrite_ = &obs::stageHistogram(reg, obs::stage::kNetWrite);
    }
}

TierServer::~TierServer()
{
    stop();
}

bool
TierServer::start(std::string &err)
{
    common::MutexLock lock(mu_);
    if (running_) {
        err = "server is already running";
        return false;
    }
    int fd = tcpListen(cfg_.host, cfg_.port, cfg_.backlog, err);
    if (fd < 0)
        return false;
    listenFd_.reset(fd);
    port_ = boundPort(fd);
    if (port_ == 0) {
        listenFd_.reset();
        err = "could not read the bound port";
        return false;
    }
    running_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
TierServer::stop()
{
    std::vector<std::shared_ptr<Connection>> conns;
    std::vector<std::thread> threads;
    {
        common::MutexLock lock(mu_);
        if (!running_)
            return;
        running_ = false;
        // Shutting the listener down pops the acceptor out of
        // accept(2); shutting each connection down pops its reader
        // out of recv(2). The reader then drains in-flight
        // completions before its thread exits (see
        // serveConnection). The fds close only after the joins —
        // close-before-join would let the kernel reuse the fd
        // number under a thread still blocked on it.
        if (listenFd_.valid())
            shutdownBoth(listenFd_.get());
        for (const auto &conn : conns_)
            shutdownBoth(conn->fd.get());
        conns.swap(conns_);
        threads.swap(threads_);
    }
    if (acceptor_.joinable())
        acceptor_.join();
    for (std::thread &t : threads)
        t.join();
    listenFd_.reset();
}

bool
TierServer::running() const
{
    common::MutexLock lock(mu_);
    return running_;
}

ServerStats
TierServer::stats() const
{
    ServerStats s;
    s.connections =
        static_cast<std::uint64_t>(connections_.value());
    s.accepted = static_cast<std::uint64_t>(accepted_.value());
    s.completed = static_cast<std::uint64_t>(completed_.value());
    s.rejected = static_cast<std::uint64_t>(rejected_.value());
    s.aborted = static_cast<std::uint64_t>(aborted_.value());
    s.badFrames = static_cast<std::uint64_t>(badFrames_.value());
    s.bytesRead = static_cast<std::uint64_t>(bytesRead_.value());
    s.bytesWritten =
        static_cast<std::uint64_t>(bytesWritten_.value());
    return s;
}

void
TierServer::acceptLoop()
{
    for (;;) {
        std::string err;
        int fd = -1;
        {
            common::MutexLock lock(mu_);
            if (!running_)
                return;
            fd = listenFd_.get();
        }
        int client = tcpAccept(fd, err);
        if (client < 0) {
            // accept(2) fails exactly when stop() tore the
            // listener down (or the fd is truly broken); either
            // way the acceptor is done.
            return;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd.reset(client);
        connections_.inc();
        common::MutexLock lock(mu_);
        if (!running_) {
            // Raced with stop(): refuse the connection rather than
            // leak a thread stop() will never join.
            shutdownBoth(client);
            return;
        }
        conns_.push_back(conn);
        threads_.emplace_back(
            [this, conn] { serveConnection(conn); });
    }
}

void
TierServer::serveConnection(const std::shared_ptr<Connection> &conn)
{
    conn->reader = std::this_thread::get_id();
    Bytes buf;
    std::uint8_t chunk[kReadChunk];
    // Arms when the buffer holds a partial frame, so the recorded
    // net-read time is genuine wire wait (first byte to decode),
    // not client think time between requests.
    common::Stopwatch readWatch;
    bool watchArmed = false;

    for (;;) {
        long n = recvSome(conn->fd.get(), chunk, sizeof(chunk));
        if (n <= 0)
            break; // Peer closed, stop() shut us down, or error.
        bytesRead_.inc(static_cast<double>(n));
        buf.insert(buf.end(), chunk, chunk + n);
        bool keep = drainFrames(conn, buf, readWatch, watchArmed);
        flushPass(*conn); // The read pass ends here.
        if (!keep)
            break;
    }

    // The reader is done; wait for every in-flight completion hook
    // so the accounting below sees a settled connection and the fd
    // stays open for any response still being written.
    {
        common::UniqueLock lock(conn->mu);
        while (conn->outstanding != 0)
            conn->cv.wait(lock.native());
    }
    // Anything still buffered is a frame the client never finished;
    // it was never accepted, so it owes nothing to conservation.
    shutdownBoth(conn->fd.get());
}

bool
TierServer::drainFrames(const std::shared_ptr<Connection> &conn,
                        Bytes &buf, common::Stopwatch &read_watch,
                        bool &watch_armed)
{
    std::size_t consumed = 0;
    bool keep = true;
    while (keep) {
        FrameDecode frame =
            decodeFrame(buf.data() + consumed,
                        buf.size() - consumed);
        if (frame.status == CodecStatus::NeedMore) {
            if (buf.size() > consumed && !watch_armed) {
                read_watch = common::Stopwatch();
                watch_armed = true;
            }
            break;
        }
        if (watch_armed) {
            if (netRead_ != nullptr)
                netRead_->observe(read_watch.seconds());
            watch_armed = false;
        }
        if (frame.status == CodecStatus::Ok &&
            frame.type == FrameType::Request &&
            frame.frameBytes <= cfg_.maxFrameBytes) {
            consumed += frame.frameBytes;
            handleRequest(conn, std::move(frame.request));
            continue;
        }
        // Malformed, oversized (by the wire bound or by this
        // server's tighter cfg bound), or a frame type the server
        // does not take. Framing cannot be trusted past this point:
        // answer BadRequest and close.
        badFrames_.inc();
        NetResponse resp;
        resp.id = 0; // The id is unknowable from a bad frame.
        resp.status = WireStatus::BadRequest;
        resp.statusNote = codecStatusName(frame.status);
        if (frame.status == CodecStatus::Ok)
            resp.statusNote = "unacceptable frame";
        appendToPass(*conn, resp, /*owed=*/false);
        keep = false;
    }
    if (consumed > 0)
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(consumed));
    return keep;
}

void
TierServer::handleRequest(const std::shared_ptr<Connection> &conn,
                          serving::ServiceRequest request)
{
    accepted_.inc();
    const std::uint64_t id = request.id;
    {
        common::MutexLock lock(conn->mu);
        ++conn->outstanding;
    }
    bool admitted = door_.submitAsync(
        std::move(request),
        [this, conn, id](const core::TierResponse &r) {
            if (std::this_thread::get_id() == conn->reader) {
                // Answered inside this read pass (a cache hit, or
                // any request on a worker-less pool): coalesce.
                appendToPass(*conn, toWire(r, id), /*owed=*/true);
                return;
            }
            Bytes frame;
            encodeResponse(toWire(r, id), frame);
            settle(*conn,
                   sendFrames(*conn, frame, 1) ? completed_ : aborted_,
                   1);
        });
    if (!admitted) {
        // Shed by the bounded door. The client still gets a frame
        // saying so — shedding is an answer, not silence. The shed
        // is counted rejected regardless of whether the write
        // lands (the reject happened either way).
        NetResponse resp;
        resp.id = id;
        resp.status = WireStatus::Rejected;
        resp.statusNote = "shed by bounded admission";
        appendToPass(*conn, resp, /*owed=*/false);
        settle(*conn, rejected_, 1);
    }
}

void
TierServer::appendToPass(Connection &conn, const NetResponse &resp,
                         bool owed)
{
    encodeResponse(resp, conn.pass);
    ++conn.passFrames;
    if (owed)
        ++conn.passOwed;
    if (conn.pass.size() >= kCoalesceBytes)
        flushPass(conn);
}

void
TierServer::flushPass(Connection &conn)
{
    if (conn.passFrames == 0)
        return;
    bool written = sendFrames(conn, conn.pass, conn.passFrames);
    if (conn.passOwed != 0)
        settle(conn, written ? completed_ : aborted_, conn.passOwed);
    conn.pass.clear();
    conn.passFrames = 0;
    conn.passOwed = 0;
}

bool
TierServer::sendFrames(Connection &conn, const Bytes &bytes,
                       std::size_t frames)
{
    common::Stopwatch writeWatch;
    common::MutexLock lock(conn.writeMu);
    if (conn.writeBroken)
        return false;
    if (!sendAll(conn.fd.get(), bytes.data(), bytes.size())) {
        conn.writeBroken = true;
        return false;
    }
    bytesWritten_.inc(static_cast<double>(bytes.size()));
    if (netWrite_ != nullptr) {
        double seconds = writeWatch.seconds();
        for (std::size_t i = 0; i < frames; ++i)
            netWrite_->observe(seconds);
    }
    return true;
}

void
TierServer::settle(Connection &conn, obs::MirroredCounter &outcome,
                   std::size_t n)
{
    outcome.inc(static_cast<double>(n));
    common::MutexLock lock(conn.mu);
    conn.outstanding -= n;
    if (conn.outstanding == 0)
        conn.cv.notify_all();
}

void
TierServer::encodeResponse(const NetResponse &resp, Bytes &out)
{
    if (encodeResponseFrame(resp, out) == CodecStatus::Ok)
        return;
    // A service output too large for one frame. The client is
    // still owed an answer: strip the oversized strings and say
    // what happened instead of dying or going silent.
    NetResponse trimmed = resp;
    trimmed.output.clear();
    trimmed.statusNote = "response exceeded the frame bound";
    CodecStatus enc = encodeResponseFrame(trimmed, out);
    TT_ASSERT(enc == CodecStatus::Ok,
              "a trimmed response must always encode");
}

NetResponse
TierServer::toWire(const core::TierResponse &resp, std::uint64_t id)
{
    NetResponse out;
    out.id = id;
    switch (resp.status) {
      case core::ServeStatus::Ok:
        out.status = WireStatus::Ok;
        break;
      case core::ServeStatus::FellBack:
        out.status = WireStatus::FellBack;
        break;
      case core::ServeStatus::GuaranteeViolation:
        out.status = WireStatus::GuaranteeViolation;
        break;
    }
    out.servedFromCache = resp.servedFromCache;
    out.escalated = resp.escalated;
    out.latencySeconds = resp.latencySeconds;
    out.costDollars = resp.costDollars;
    out.confidence = resp.confidence;
    out.ruleTolerance = resp.ruleTolerance;
    out.traceId = resp.traceId;
    out.output = resp.output;
    out.statusNote = resp.statusNote;
    return out;
}

} // namespace toltiers::net

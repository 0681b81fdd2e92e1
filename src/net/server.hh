/**
 * @file
 * The socket front end: a thread-per-connection TCP server that
 * speaks the toltiers wire protocol (net/protocol.hh) and feeds
 * every decoded request into the existing TierFrontDoor — so
 * bounded admission, batching, the result cache, tracing, and all
 * tt_frontdoor_* / tt_tier_* metrics apply to network requests
 * unchanged. The paper's tolerance tiers are a *service API*
 * contract; this is the layer that makes the contract reachable
 * from a wire instead of only in-process.
 *
 * Concurrency model: one acceptor thread blocks in accept(2); each
 * connection gets a reader thread that decodes frames and submits
 * them through TierFrontDoor::submitAsync. A cache hit is answered
 * by the door on the reader thread itself; a miss is produced on
 * the door's work-stealing pool and written back from the
 * completion hook under a per-connection write mutex, so one
 * connection can pipeline many in-flight requests and responses
 * are framed back as they finish (tagged by the echoed request id
 * — ordering across in-flight requests is NOT guaranteed, by
 * design). A reader thread never waits for responses; a writer
 * never blocks the pool on another connection's socket.
 *
 * Write coalescing: every frame the reader thread answers during
 * one read pass (the frames decoded from one recv(2)) — cache
 * hits, sheds, a BadRequest, and on a worker-less pool every
 * response — is appended to the connection's pass buffer and
 * written with one send when the pass ends, or earlier once the
 * buffer passes kCoalesceBytes. The requests in that buffer settle
 * completed or aborted by that one write's result. Completions on
 * pool workers still write their frame at once.
 *
 * Accounting is conservation-checked, mirroring the front door:
 * every *accepted* request frame (well-formed, handed to the door)
 * is exactly one of
 *
 *     completed  — response produced and written to the socket
 *     rejected   — shed by the door's bounded admission (a
 *                  Rejected response frame is still written)
 *     aborted    — a response was owed but the connection died
 *                  before it could be written
 *
 * so tt_net_accepted_total = tt_net_completed_total +
 * tt_net_rejected_total + tt_net_aborted_total exactly once the
 * server has stopped (stop() joins every connection after its
 * in-flight requests drain). Malformed frames are counted
 * separately (tt_net_bad_frames_total) and answered with a
 * BadRequest response before the connection closes — framing
 * cannot be trusted past a malformed frame.
 *
 * Wire time is attributed like every other stage: the wall time a
 * request frame spent partially received (first byte to decode)
 * lands in tt_stage_seconds{stage="net-read"} and the response
 * write in tt_stage_seconds{stage="net-write"}, alongside byte and
 * connection counters. net-write keeps one sample per written
 * frame: the wall time of the send that carried it (write-mutex
 * wait included), so every frame of a coalesced send records that
 * send's time.
 */

#ifndef TOLTIERS_NET_SERVER_HH
#define TOLTIERS_NET_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/stopwatch.hh"
#include "core/front_door.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"

namespace toltiers::net {

/** Server construction parameters. */
struct ServerConfig
{
    /** Listen address (IPv4 dotted quad; default loopback). */
    std::string host = "127.0.0.1";
    /** Listen port; 0 binds an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /** accept(2) backlog. */
    int backlog = 64;
    /** Per-frame size bound (<= protocol kMaxFrameBytes). */
    std::size_t maxFrameBytes = kMaxFrameBytes;
    /** Optional registry for the tt_net_* series. */
    obs::Registry *metrics = nullptr;
};

/** Point-in-time server accounting (exact after stop()). */
struct ServerStats
{
    std::uint64_t connections = 0; //!< Connections ever accepted.
    std::uint64_t accepted = 0;  //!< Well-formed request frames.
    std::uint64_t completed = 0; //!< Responses written back.
    std::uint64_t rejected = 0;  //!< Shed by the bounded door.
    std::uint64_t aborted = 0;   //!< Owed but connection died.
    std::uint64_t badFrames = 0; //!< Malformed/oversized frames.
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
};

/** TCP front end over one TierFrontDoor. */
class TierServer
{
  public:
    /** A read pass's buffered responses are written early once
     * they pass this many bytes. */
    static constexpr std::size_t kCoalesceBytes = 64 * 1024;

    /** The door (and everything behind it) must outlive the
     * server; the server must be stop()ped — or destroyed — before
     * the door drains away. */
    TierServer(core::TierFrontDoor &door, ServerConfig cfg);

    /** stop()s if still running. */
    ~TierServer();

    TierServer(const TierServer &) = delete;
    TierServer &operator=(const TierServer &) = delete;

    /**
     * Bind, listen, and start the acceptor thread. Returns false
     * with `err` set when the socket setup fails (the server is
     * then inert and may not be started again).
     */
    [[nodiscard]] bool start(std::string &err);

    /**
     * Close the listener, wake every connection, wait for their
     * in-flight requests to finish, and join all threads. After
     * stop() the accounting identities hold exactly. Idempotent.
     */
    void stop();

    /** The bound port (the ephemeral pick when cfg.port was 0). */
    std::uint16_t port() const { return port_; }

    /** True between a successful start() and stop(). */
    bool running() const;

    /** Point-in-time accounting snapshot. */
    ServerStats stats() const;

  private:
    /** Per-connection shared state; outlives the reader thread as
     * long as any completion hook still holds it. */
    struct Connection
    {
        ScopedFd fd;
        /** The reader thread; set before its first submit. */
        std::thread::id reader;
        /** Frames the reader answered in the current read pass, and
         * how many of them settle a request by the write's result.
         * Only the reader thread touches these. */
        Bytes pass;
        std::size_t passFrames = 0;
        std::size_t passOwed = 0;
        common::Mutex writeMu; //!< Serializes response frames.
        /** Set when a write failed; no further writes land. */
        bool writeBroken GUARDED_BY(writeMu) = false;
        common::Mutex mu;
        std::condition_variable cv;
        /** Requests handed to the door, response not yet settled. */
        std::size_t outstanding GUARDED_BY(mu) = 0;
    };

    void acceptLoop();
    void serveConnection(const std::shared_ptr<Connection> &conn);
    /** Decode-and-dispatch every complete frame at the head of
     * `buf`; returns false when the connection must close. */
    bool drainFrames(const std::shared_ptr<Connection> &conn,
                     Bytes &buf, common::Stopwatch &read_watch,
                     bool &watch_armed);
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       serving::ServiceRequest request);
    /** Append a frame the reader answered to the pass buffer;
     * `owed` when the write's result settles its request. Flushes
     * once the buffer passes kCoalesceBytes. */
    void appendToPass(Connection &conn, const NetResponse &resp,
                      bool owed);
    /** Write the pass buffer with one send and settle its owed
     * requests completed or aborted by the result. */
    void flushPass(Connection &conn);
    /** Write `frames` encoded frames with one send; returns false
     * when the connection's write side is broken. */
    bool sendFrames(Connection &conn, const Bytes &bytes,
                    std::size_t frames);
    /** Count `n` requests of `conn` as `outcome` and release them. */
    static void settle(Connection &conn, obs::MirroredCounter &outcome,
                       std::size_t n);
    /** Append one response frame to `out`, trimming an output too
     * large for a frame. */
    static void encodeResponse(const NetResponse &resp, Bytes &out);
    static NetResponse toWire(const core::TierResponse &resp,
                              std::uint64_t id);

    core::TierFrontDoor &door_;
    ServerConfig cfg_;
    std::uint16_t port_ = 0;

    // listenFd_ is deliberately NOT guarded: stop() resets it only
    // after every thread that could touch it has been joined.
    ScopedFd listenFd_;
    std::thread acceptor_;
    mutable common::Mutex mu_;
    bool running_ GUARDED_BY(mu_) = false;
    std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(mu_);
    std::vector<std::thread> threads_ GUARDED_BY(mu_);

    // Striped hot tallies, mirrored into cfg_.metrics when
    // attached (same scheme as TierFrontDoor).
    obs::MirroredCounter connections_;
    obs::MirroredCounter accepted_;
    obs::MirroredCounter completed_;
    obs::MirroredCounter rejected_;
    obs::MirroredCounter aborted_;
    obs::MirroredCounter badFrames_;
    obs::MirroredCounter bytesRead_;
    obs::MirroredCounter bytesWritten_;
    /** tt_stage_seconds net-read / net-write (null without
     * metrics). */
    obs::Histogram *netRead_ = nullptr;
    obs::Histogram *netWrite_ = nullptr;
};

} // namespace toltiers::net

#endif // TOLTIERS_NET_SERVER_HH

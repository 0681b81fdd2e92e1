/**
 * @file
 * The toltiers wire protocol: compact length-prefixed binary frames
 * carrying the paper's Tolerance/Objective annotations (§IV-A) over
 * a byte stream.
 *
 * Frame layout (all integers little-endian, doubles as IEEE-754
 * bit patterns in a little-endian u64):
 *
 *     u32  bodyLen   bytes after this field (4 fixed + payload)
 *     u8   magic0    'T'
 *     u8   magic1    'N'
 *     u8   version   kProtocolVersion (1)
 *     u8   type      1 = request, 2 = response
 *     ...  payload   type-specific, bodyLen - 4 bytes
 *
 * Request payload:
 *
 *     u64  id               client-chosen request id (echoed back)
 *     u64  payload          index into the bound workload
 *     f64  tolerance        Tolerance annotation, in [0, 1]
 *     u8   objective        0 = response-time, 1 = cost
 *     u8   flags            reserved, must be 0
 *     str16 tenant          tenant id (multi-tenancy-ready)
 *     u16  headerCount      then per header: str16 key, str16 value
 *
 * Response payload:
 *
 *     u64  id               echo of the request id
 *     u8   status           WireStatus
 *     u8   servedFromCache  0/1
 *     u8   escalated        0/1
 *     u8   reserved         must be 0
 *     f64  latencySeconds   composed response latency
 *     f64  costDollars      composed invocation cost
 *     f64  confidence       chosen result's confidence
 *     f64  ruleTolerance    tolerance of the matched rule
 *     u64  traceId          span-tree id (0 when tracing is off)
 *     str32 output          result payload
 *     str32 statusNote      human-readable detail for non-Ok
 *
 * where strN is a uN byte length followed by that many raw bytes.
 *
 * Decoding never terminates the process: malformed, truncated,
 * oversized, or garbage input comes back as a CodecStatus (the same
 * contract as serving::parseAnnotatedRequest — a front door sheds a
 * bad frame, it does not die on one). Frames larger than
 * kMaxFrameBytes are refused on both the encode and decode side, so
 * a hostile length prefix can never drive an allocation.
 */

#ifndef TOLTIERS_NET_PROTOCOL_HH
#define TOLTIERS_NET_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serving/request.hh"

namespace toltiers::net {

/** Wire byte buffer. */
using Bytes = std::vector<std::uint8_t>;

inline constexpr std::uint8_t kMagic0 = 'T';
inline constexpr std::uint8_t kMagic1 = 'N';
inline constexpr std::uint8_t kProtocolVersion = 1;

/** Bytes of the u32 length prefix. */
inline constexpr std::size_t kLengthPrefixBytes = 4;
/** Fixed header bytes after the prefix (magic, version, type). */
inline constexpr std::size_t kFixedHeaderBytes = 4;

/**
 * Hard bound on one frame's total size (prefix included). Both
 * sides enforce it: encoders refuse to build a larger frame,
 * decoders refuse to believe a length prefix beyond it.
 */
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/** Frame kinds. */
enum class FrameType : std::uint8_t { Request = 1, Response = 2 };

/**
 * Response status on the wire: the three TierResponse outcomes plus
 * the two network-front-end-only outcomes (shed at the door, and
 * request frame refused before admission).
 */
enum class WireStatus : std::uint8_t
{
    Ok = 0,                 //!< Served by the matched ensemble.
    FellBack = 1,           //!< Served by a tolerance-safe fallback.
    GuaranteeViolation = 2, //!< Explicit guarantee violation.
    Rejected = 3,           //!< Shed by the bounded front door.
    BadRequest = 4,         //!< Malformed request payload.
};

/** Printable status name ("ok" / "fell-back" / ...). */
const char *wireStatusName(WireStatus status);

/** Why a codec operation did not produce a frame. */
enum class CodecStatus : std::uint8_t
{
    Ok,            //!< A complete frame was encoded/decoded.
    NeedMore,      //!< Buffer holds a frame prefix; read more.
    BadMagic,      //!< Frame does not start with 'T' 'N'.
    BadVersion,    //!< Protocol version mismatch.
    BadType,       //!< Unknown frame type byte.
    Truncated,     //!< Payload ends mid-field (bodyLen too small).
    TrailingBytes, //!< Payload longer than its fields (bodyLen too
                   //!< large).
    Oversized,     //!< Frame would exceed kMaxFrameBytes.
    BadValue,      //!< A field holds an out-of-domain value.
    Closed,        //!< Peer closed the connection (transport only).
};

/** Printable codec status name ("ok" / "need-more" / ...). */
const char *codecStatusName(CodecStatus status);

/** One response as carried on the wire. */
struct NetResponse
{
    std::uint64_t id = 0; //!< Echo of the request id.
    WireStatus status = WireStatus::Ok;
    bool servedFromCache = false;
    bool escalated = false;
    double latencySeconds = 0.0;
    double costDollars = 0.0;
    double confidence = 0.0;
    double ruleTolerance = 0.0;
    std::uint64_t traceId = 0;
    std::string output;
    std::string statusNote;
};

/**
 * Append one request frame for `req` to `out`. Oversized (out
 * untouched) when the tenant/header strings
 * would blow kMaxFrameBytes or a u16 string-length field; BadValue
 * when the tolerance is outside [0, 1] or not finite.
 */
[[nodiscard]] CodecStatus
encodeRequestFrame(const serving::ServiceRequest &req, Bytes &out);

/**
 * Append one response frame for `resp` to `out`. Oversized (out
 * untouched) when output/statusNote would blow kMaxFrameBytes.
 */
[[nodiscard]] CodecStatus encodeResponseFrame(const NetResponse &resp,
                                              Bytes &out);

/** Result of decoding the leading frame of a byte buffer. */
struct [[nodiscard]] FrameDecode
{
    CodecStatus status = CodecStatus::NeedMore;
    FrameType type = FrameType::Request;
    /** Bytes the frame occupies in the buffer — consumed on Ok,
     * and on any terminal error whose frame boundary was readable
     * (so a stream can skip a bad frame and resync); 0 when even
     * the boundary is unknown (NeedMore / Oversized / BadMagic). */
    std::size_t frameBytes = 0;
    serving::ServiceRequest request; //!< Valid when ok() & Request.
    NetResponse response;            //!< Valid when ok() & Response.

    /** True when a complete, valid frame was decoded. */
    bool ok() const { return status == CodecStatus::Ok; }
};

/**
 * Decode the first frame of `data[0..len)`. NeedMore when the
 * buffer holds only a frame prefix; any other non-Ok status means
 * the stream is unusable at this position (the server closes the
 * connection — after a malformed frame the boundary can lie, so
 * resynchronization is not attempted beyond a readable bodyLen).
 */
FrameDecode decodeFrame(const std::uint8_t *data, std::size_t len);

} // namespace toltiers::net

#endif // TOLTIERS_NET_PROTOCOL_HH

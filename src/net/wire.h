// Wire protocol of the query server (src/net/server.h): length-prefixed
// little-endian frames over a byte stream, designed for pipelining —
// a client may have any number of requests in flight on one connection
// and responses carry the request id they answer (the server may
// reorder across shards).
//
//   frame    := [u32 payload_len][payload]          len <= kMaxFrameBytes
//   request  := [u64 id][u32 deadline_ms][u8 engine][u8 flags]
//               [u16 pattern_len][pattern bytes][extensions?]
//   extensions (only when flags has kFlagHasExtensions) :=
//               [u8 count][count x (u8 type, u16 len, len bytes)]
//               type 1 (trace context, len 17):
//                 [u64 trace_id][u64 parent_span][u8 sampled]
//               unknown types / wrong lengths are InvalidArgument —
//               framed back to the client, never asserted on.
//   response := [u64 id][u8 status_code]
//               ok:    [u8 flags][u16 ncols][ncols x (u16 len, bytes)]
//                      checksum_only: [u64 row_count][u64 checksum]
//                        (checksum = RowSetChecksum, common/row_block.h)
//                      else:          [u64 row_count][rows x ncols x u32]
//               error: [u16 msg_len][msg bytes]
//
// Every decode path returns Status — a malformed or oversized frame is
// a framed error response to the client, never a server assert (the
// frame-decoder fuzz test in tests/net_test.cc feeds arbitrary bytes
// through FrameDecoder + DecodeQueryRequest).
#ifndef FGPM_NET_WIRE_H_
#define FGPM_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"

namespace fgpm::net {

// Hard cap on one frame's payload; a length prefix above this is a
// protocol error (the stream cannot be resynchronized — close it).
inline constexpr uint32_t kMaxFrameBytes = 8u << 20;
// Cap on the pattern text inside a request (well above any real
// pattern; bounds parser work per frame).
inline constexpr uint32_t kMaxPatternBytes = 1u << 14;

// QueryRequest::flags bits.
inline constexpr uint8_t kFlagChecksumOnly = 1u << 0;
inline constexpr uint8_t kFlagTransitiveReduction = 1u << 1;
// Request carries a TLV extension block after the pattern. Old decoders
// reject the flag (unknown bit => trailing bytes error) rather than
// silently mis-parse; old encoders never set it, so the base frame is
// byte-identical with extensions absent.
inline constexpr uint8_t kFlagHasExtensions = 1u << 2;

// Extension types.
inline constexpr uint8_t kExtTraceContext = 1;
inline constexpr uint16_t kExtTraceContextLen = 17;  // u64 + u64 + u8

struct QueryRequest {
  uint64_t id = 0;
  // Relative deadline from server receipt; 0 = none. Checked when the
  // request is dispatched from the admission queue.
  uint32_t deadline_ms = 0;
  uint8_t engine = 0;  // fgpm::Engine value; planned engines only
  uint8_t flags = 0;
  std::string pattern;

  // Distributed trace context (kExtTraceContext). When has_trace, the
  // server joins this trace instead of starting one: the request's root
  // span parents under `parent_span` of `trace_id`, and trace_sampled
  // forces head-sampling regardless of the server's trace_sample_n.
  bool has_trace = false;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  bool trace_sampled = false;

  bool checksum_only() const { return flags & kFlagChecksumOnly; }
};

struct QueryResponse {
  uint64_t id = 0;
  StatusCode code = StatusCode::kOk;
  std::string error;  // set when code != kOk
  uint8_t flags = 0;
  std::vector<std::string> columns;
  uint64_t row_count = 0;
  uint64_t checksum = 0;  // valid when flags has kFlagChecksumOnly
  RowBlock rows;  // width columns.size(); empty when checksum-only

  bool ok() const { return code == StatusCode::kOk; }
  bool checksum_only() const { return flags & kFlagChecksumOnly; }
};

// Append one framed message ([len][payload]) to *out.
void EncodeQueryRequest(const QueryRequest& req, std::string* out);
void EncodeQueryResponse(const QueryResponse& resp, std::string* out);

// Decode one frame payload (without the length prefix).
Status DecodeQueryRequest(std::span<const char> payload, QueryRequest* req);
Status DecodeQueryResponse(std::span<const char> payload,
                           QueryResponse* resp);

// Incremental frame splitter. Feed arbitrary byte chunks; Next() pops
// complete payloads. A length prefix above kMaxFrameBytes poisons the
// decoder (the stream cannot resync) — every later Next() returns the
// same Corruption status.
class FrameDecoder {
 public:
  void Append(std::span<const char> bytes) {
    buf_.append(bytes.data(), bytes.size());
  }

  // Ok(true): *payload holds the next complete frame payload.
  // Ok(false): need more bytes.
  // Corruption: oversized length prefix (connection should close).
  Result<bool> Next(std::string* payload);

  size_t buffered() const { return buf_.size() - off_; }

 private:
  std::string buf_;
  size_t off_ = 0;  // consumed prefix; compacted lazily
  bool poisoned_ = false;
};

}  // namespace fgpm::net

#endif  // FGPM_NET_WIRE_H_

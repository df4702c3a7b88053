#include "net/wire.h"

#include <cstring>

namespace fgpm::net {
namespace {

// Little-endian append/read helpers. A cursor-based reader keeps every
// bounds check in one place so truncated frames surface as Status, not
// out-of-bounds reads.
template <typename T>
void Put(std::string* out, T v) {
  char b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  out->append(b, sizeof(T));
}

struct Reader {
  std::span<const char> data;
  size_t pos = 0;

  template <typename T>
  Status Get(T* v) {
    if (data.size() - pos < sizeof(T)) {
      return Status::InvalidArgument("truncated frame");
    }
    std::memcpy(v, data.data() + pos, sizeof(T));
    pos += sizeof(T);
    return Status::OK();
  }
  Status GetString(size_t n, std::string* s) {
    if (data.size() - pos < n) {
      return Status::InvalidArgument("truncated frame");
    }
    s->assign(data.data() + pos, n);
    pos += n;
    return Status::OK();
  }
  Status ExpectDone() const {
    return pos == data.size()
               ? Status::OK()
               : Status::InvalidArgument("trailing bytes in frame");
  }
};

void BeginFrame(std::string* out, size_t* len_at) {
  *len_at = out->size();
  Put<uint32_t>(out, 0);  // patched by EndFrame
}

void EndFrame(std::string* out, size_t len_at) {
  uint32_t len = static_cast<uint32_t>(out->size() - len_at - 4);
  std::memcpy(out->data() + len_at, &len, 4);
}

}  // namespace

void EncodeQueryRequest(const QueryRequest& req, std::string* out) {
  size_t len_at;
  BeginFrame(out, &len_at);
  Put<uint64_t>(out, req.id);
  Put<uint32_t>(out, req.deadline_ms);
  Put<uint8_t>(out, req.engine);
  uint8_t flags = req.flags;
  if (req.has_trace) {
    flags |= kFlagHasExtensions;
  } else {
    flags &= static_cast<uint8_t>(~kFlagHasExtensions);
  }
  Put<uint8_t>(out, flags);
  Put<uint16_t>(out, static_cast<uint16_t>(req.pattern.size()));
  out->append(req.pattern);
  if (req.has_trace) {
    Put<uint8_t>(out, 1);  // extension count
    Put<uint8_t>(out, kExtTraceContext);
    Put<uint16_t>(out, kExtTraceContextLen);
    Put<uint64_t>(out, req.trace_id);
    Put<uint64_t>(out, req.parent_span);
    Put<uint8_t>(out, req.trace_sampled ? 1 : 0);
  }
  EndFrame(out, len_at);
}

Status DecodeQueryRequest(std::span<const char> payload, QueryRequest* req) {
  Reader r{payload};
  FGPM_RETURN_IF_ERROR(r.Get(&req->id));
  FGPM_RETURN_IF_ERROR(r.Get(&req->deadline_ms));
  FGPM_RETURN_IF_ERROR(r.Get(&req->engine));
  FGPM_RETURN_IF_ERROR(r.Get(&req->flags));
  uint16_t plen = 0;
  FGPM_RETURN_IF_ERROR(r.Get(&plen));
  if (plen > kMaxPatternBytes) {
    return Status::InvalidArgument("pattern exceeds kMaxPatternBytes");
  }
  FGPM_RETURN_IF_ERROR(r.GetString(plen, &req->pattern));
  req->has_trace = false;
  req->trace_id = 0;
  req->parent_span = 0;
  req->trace_sampled = false;
  if (req->flags & kFlagHasExtensions) {
    uint8_t count = 0;
    FGPM_RETURN_IF_ERROR(r.Get(&count));
    for (uint8_t i = 0; i < count; ++i) {
      uint8_t type = 0;
      uint16_t len = 0;
      FGPM_RETURN_IF_ERROR(r.Get(&type));
      FGPM_RETURN_IF_ERROR(r.Get(&len));
      if (type == kExtTraceContext) {
        if (len != kExtTraceContextLen) {
          return Status::InvalidArgument("bad trace-context extension length");
        }
        uint8_t sampled = 0;
        FGPM_RETURN_IF_ERROR(r.Get(&req->trace_id));
        FGPM_RETURN_IF_ERROR(r.Get(&req->parent_span));
        FGPM_RETURN_IF_ERROR(r.Get(&sampled));
        req->has_trace = true;
        req->trace_sampled = sampled != 0;
      } else {
        // Unknown extension: a client newer than this server. The frame
        // is self-describing, but forward-skipping would silently drop
        // semantics we cannot honor — reject, framed, so the client
        // downgrades explicitly.
        return Status::InvalidArgument("unknown request extension type");
      }
    }
  }
  return r.ExpectDone();
}

void EncodeQueryResponse(const QueryResponse& resp, std::string* out) {
  size_t len_at;
  BeginFrame(out, &len_at);
  Put<uint64_t>(out, resp.id);
  Put<uint8_t>(out, static_cast<uint8_t>(resp.code));
  if (!resp.ok()) {
    Put<uint16_t>(out, static_cast<uint16_t>(resp.error.size()));
    out->append(resp.error);
  } else {
    Put<uint8_t>(out, resp.flags);
    Put<uint16_t>(out, static_cast<uint16_t>(resp.columns.size()));
    for (const std::string& c : resp.columns) {
      Put<uint16_t>(out, static_cast<uint16_t>(c.size()));
      out->append(c);
    }
    Put<uint64_t>(out, resp.row_count);
    if (resp.checksum_only()) {
      Put<uint64_t>(out, resp.checksum);
    } else {
      // The block is the row payload: ids row-major in host order,
      // which every Put here assumes is little-endian. One pass.
      out->append(reinterpret_cast<const char*>(resp.rows.data()),
                  resp.rows.size() * resp.rows.width() * sizeof(uint32_t));
    }
  }
  EndFrame(out, len_at);
}

Status DecodeQueryResponse(std::span<const char> payload,
                           QueryResponse* resp) {
  Reader r{payload};
  FGPM_RETURN_IF_ERROR(r.Get(&resp->id));
  uint8_t code = 0;
  FGPM_RETURN_IF_ERROR(r.Get(&code));
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("unknown status code in response");
  }
  resp->code = static_cast<StatusCode>(code);
  if (!resp->ok()) {
    uint16_t mlen = 0;
    FGPM_RETURN_IF_ERROR(r.Get(&mlen));
    FGPM_RETURN_IF_ERROR(r.GetString(mlen, &resp->error));
    return r.ExpectDone();
  }
  FGPM_RETURN_IF_ERROR(r.Get(&resp->flags));
  uint16_t ncols = 0;
  FGPM_RETURN_IF_ERROR(r.Get(&ncols));
  resp->columns.resize(ncols);
  for (auto& c : resp->columns) {
    uint16_t clen = 0;
    FGPM_RETURN_IF_ERROR(r.Get(&clen));
    FGPM_RETURN_IF_ERROR(r.GetString(clen, &c));
  }
  FGPM_RETURN_IF_ERROR(r.Get(&resp->row_count));
  resp->rows = RowBlock(ncols);
  if (resp->checksum_only()) {
    FGPM_RETURN_IF_ERROR(r.Get(&resp->checksum));
    return r.ExpectDone();
  }
  // Row payload size is implied; verify it matches before allocating
  // (a hostile row_count must not drive the allocation below).
  if (ncols == 0 && resp->row_count != 0) {
    return Status::InvalidArgument("rows without columns");
  }
  uint64_t remaining = payload.size() - r.pos;
  if (resp->row_count > kMaxFrameBytes / 4 ||
      remaining != resp->row_count * ncols * 4) {
    return Status::InvalidArgument("row payload size mismatch");
  }
  uint32_t* ids = resp->rows.AppendUninitialized(resp->row_count);
  if (remaining > 0) std::memcpy(ids, payload.data() + r.pos, remaining);
  r.pos += remaining;
  return r.ExpectDone();
}

Result<bool> FrameDecoder::Next(std::string* payload) {
  if (poisoned_) return Status::Corruption("frame stream poisoned");
  if (buffered() < 4) return false;
  uint32_t len = 0;
  std::memcpy(&len, buf_.data() + off_, 4);
  if (len > kMaxFrameBytes) {
    poisoned_ = true;
    return Status::Corruption("frame length exceeds kMaxFrameBytes");
  }
  if (buffered() < 4ull + len) return false;
  payload->assign(buf_.data() + off_ + 4, len);
  off_ += 4ull + len;
  // Compact once the consumed prefix dominates (amortized O(1)/byte).
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return true;
}

}  // namespace fgpm::net

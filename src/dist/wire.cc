#include "dist/wire.h"

#include <cstring>

#include "util/string_util.h"

namespace gmreg {
namespace {

// Payload ceilings: a tensor or slice larger than this is a protocol error,
// not a legitimate message (the job's MLPs are a few thousand parameters).
constexpr std::int64_t kMaxWireElements = std::int64_t{1} << 27;  // 128M
constexpr std::uint32_t kMaxWireParams = 4096;

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what +
                                 " message");
}

}  // namespace

void WireWriter::PutU8(std::uint8_t v) {
  payload_.push_back(static_cast<char>(v));
}

void WireWriter::PutU32(std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  payload_.append(b, 4);
}

void WireWriter::PutU64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  payload_.append(b, 8);
}

void WireWriter::PutI64(std::int64_t v) {
  PutU64(static_cast<std::uint64_t>(v));
}

void WireWriter::PutDouble(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(bits);
}

void WireWriter::PutFloats(const float* data, std::int64_t count) {
  PutI64(count);
  payload_.append(reinterpret_cast<const char*>(data),
                  static_cast<std::size_t>(count) * sizeof(float));
}

void WireWriter::PutDoubles(const double* data, std::int64_t count) {
  PutI64(count);
  payload_.append(reinterpret_cast<const char*>(data),
                  static_cast<std::size_t>(count) * sizeof(double));
}

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  payload_.append(s);
}

bool WireReader::Take(void* dst, std::size_t n) {
  if (payload_.size() - pos_ < n) return false;
  // An empty array's destination may be null, which memcpy does not allow.
  if (n > 0) std::memcpy(dst, payload_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::GetU8(std::uint8_t* v) { return Take(v, 1); }

bool WireReader::GetU32(std::uint32_t* v) {
  unsigned char b[4];
  if (!Take(b, 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return true;
}

bool WireReader::GetU64(std::uint64_t* v) {
  unsigned char b[8];
  if (!Take(b, 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return true;
}

bool WireReader::GetI64(std::int64_t* v) {
  std::uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<std::int64_t>(u);
  return true;
}

bool WireReader::GetDouble(double* v) {
  std::uint64_t bits;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof bits);
  return true;
}

bool WireReader::GetFloats(std::vector<float>* out) {
  std::int64_t count;
  if (!GetI64(&count) || count < 0 || count > kMaxWireElements) return false;
  out->resize(static_cast<std::size_t>(count));
  return Take(out->data(), static_cast<std::size_t>(count) * sizeof(float));
}

bool WireReader::GetDoubles(std::vector<double>* out) {
  std::int64_t count;
  if (!GetI64(&count) || count < 0 || count > kMaxWireElements) return false;
  out->resize(static_cast<std::size_t>(count));
  return Take(out->data(), static_cast<std::size_t>(count) * sizeof(double));
}

bool WireReader::GetString(std::string* out) {
  std::uint32_t len;
  if (!GetU32(&len)) return false;
  if (payload_.size() - pos_ < len) return false;
  out->assign(payload_, pos_, len);
  pos_ += len;
  return true;
}

std::string HelloMsg::Encode() const {
  WireWriter w;
  w.PutU32(rank);
  w.PutU32(world);
  return w.Take();
}

Status HelloMsg::Decode(const std::string& payload, HelloMsg* out) {
  WireReader r(payload);
  if (!r.GetU32(&out->rank) || !r.GetU32(&out->world) || !r.AtEnd()) {
    return Truncated("hello");
  }
  if (out->world == 0 || out->rank >= out->world) {
    return Status::OutOfRange("hello rank/world out of range");
  }
  return Status::Ok();
}

std::string GradRequestMsg::Encode() const {
  WireWriter w;
  w.PutI64(step);
  w.PutI64(epoch);
  w.PutU32(static_cast<std::uint32_t>(params.size()));
  for (const std::vector<float>& p : params) {
    w.PutFloats(p.data(), static_cast<std::int64_t>(p.size()));
  }
  return w.Take();
}

Status GradRequestMsg::Decode(const std::string& payload,
                              GradRequestMsg* out) {
  WireReader r(payload);
  std::uint32_t num_params;
  if (!r.GetI64(&out->step) || !r.GetI64(&out->epoch) ||
      !r.GetU32(&num_params) || num_params > kMaxWireParams) {
    return Truncated("grad-request");
  }
  out->params.resize(num_params);
  for (std::vector<float>& p : out->params) {
    if (!r.GetFloats(&p)) return Truncated("grad-request");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing garbage in grad-request");
  }
  return Status::Ok();
}

std::string GradReplyMsg::Encode() const {
  WireWriter w;
  w.PutI64(step);
  w.PutDouble(loss);
  w.PutU32(static_cast<std::uint32_t>(grads.size()));
  for (const std::vector<float>& g : grads) {
    w.PutFloats(g.data(), static_cast<std::int64_t>(g.size()));
  }
  return w.Take();
}

Status GradReplyMsg::Decode(const std::string& payload, GradReplyMsg* out) {
  WireReader r(payload);
  std::uint32_t num_params;
  if (!r.GetI64(&out->step) || !r.GetDouble(&out->loss) ||
      !r.GetU32(&num_params) || num_params > kMaxWireParams) {
    return Truncated("grad-reply");
  }
  out->grads.resize(num_params);
  for (std::vector<float>& g : out->grads) {
    if (!r.GetFloats(&g)) return Truncated("grad-reply");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing garbage in grad-reply");
  }
  return Status::Ok();
}

std::string EStepRequestMsg::Encode() const {
  WireWriter w;
  w.PutI64(seq);
  w.PutU8(want_greg ? 1 : 0);
  w.PutU8(want_stats ? 1 : 0);
  w.PutDoubles(pi.data(), static_cast<std::int64_t>(pi.size()));
  w.PutDoubles(lambda.data(), static_cast<std::int64_t>(lambda.size()));
  w.PutI64(slice_begin);
  w.PutFloats(this->w.data(), static_cast<std::int64_t>(this->w.size()));
  return w.Take();
}

Status EStepRequestMsg::Decode(const std::string& payload,
                               EStepRequestMsg* out) {
  WireReader r(payload);
  std::uint8_t want_greg, want_stats;
  if (!r.GetI64(&out->seq) || !r.GetU8(&want_greg) || !r.GetU8(&want_stats) ||
      !r.GetDoubles(&out->pi) || !r.GetDoubles(&out->lambda) ||
      !r.GetI64(&out->slice_begin) || !r.GetFloats(&out->w) || !r.AtEnd()) {
    return Truncated("estep-request");
  }
  out->want_greg = want_greg != 0;
  out->want_stats = want_stats != 0;
  if (out->pi.empty() || out->pi.size() != out->lambda.size()) {
    return Status::OutOfRange("estep-request mixture is malformed");
  }
  if (out->pi.size() > static_cast<std::size_t>(kMaxGmComponents)) {
    return Status::OutOfRange(
        StrFormat("estep-request component count %zu above %d",
                  out->pi.size(), kMaxGmComponents));
  }
  if (out->slice_begin < 0) {
    return Status::OutOfRange("estep-request slice_begin is negative");
  }
  return Status::Ok();
}

std::string EStepReplyMsg::Encode() const {
  WireWriter w;
  w.PutI64(seq);
  w.PutU8(greg.empty() ? 0 : 1);
  if (!greg.empty()) {
    w.PutFloats(greg.data(), static_cast<std::int64_t>(greg.size()));
  }
  w.PutU8(stats_encoded.empty() ? 0 : 1);
  if (!stats_encoded.empty()) w.PutString(stats_encoded);
  return w.Take();
}

Status EStepReplyMsg::Decode(const std::string& payload, EStepReplyMsg* out) {
  WireReader r(payload);
  std::uint8_t has_greg, has_stats;
  out->greg.clear();
  out->stats_encoded.clear();
  if (!r.GetI64(&out->seq) || !r.GetU8(&has_greg)) {
    return Truncated("estep-reply");
  }
  if (has_greg != 0 && !r.GetFloats(&out->greg)) {
    return Truncated("estep-reply");
  }
  if (!r.GetU8(&has_stats)) return Truncated("estep-reply");
  if (has_stats != 0 && !r.GetString(&out->stats_encoded)) {
    return Truncated("estep-reply");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing garbage in estep-reply");
  }
  return Status::Ok();
}

}  // namespace gmreg

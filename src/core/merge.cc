#include "core/merge.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace gmreg {
namespace {

struct Cluster {
  double pi = 0.0;
  double var = 0.0;  // mixture variance of the merged zero-mean components
};

// Merged variance of two zero-mean sub-mixtures is the pi-weighted mean.
Cluster Merge(const Cluster& a, const Cluster& b) {
  Cluster out;
  out.pi = a.pi + b.pi;
  out.var = (a.var * a.pi + b.var * b.pi) / out.pi;
  return out;
}

}  // namespace

namespace {

GaussianMixture MergeOnce(const GaussianMixture& gm, double ratio,
                          double pi_drop);

}  // namespace

GaussianMixture MergeSimilarComponents(const GaussianMixture& gm,
                                       double ratio, double pi_drop) {
  // Merging two components can move the cluster's precision within `ratio`
  // of its next neighbour, so iterate to a fixed point: the merged view has
  // no two components within `ratio` and no component below `pi_drop`.
  GaussianMixture merged = MergeOnce(gm, ratio, pi_drop);
  while (true) {
    GaussianMixture next = MergeOnce(merged, ratio, pi_drop);
    if (next.num_components() == merged.num_components()) return next;
    merged = next;
  }
}

namespace {

GaussianMixture MergeOnce(const GaussianMixture& gm, double ratio,
                          double pi_drop) {
  GMREG_CHECK_GE(ratio, 1.0);
  int kk = gm.num_components();
  // Sweep components in precision order: a component joins the current
  // cluster while its precision is within `ratio` of the cluster's first
  // member; otherwise it starts a new cluster.
  std::vector<int> order(static_cast<std::size_t>(kk));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return gm.lambda()[static_cast<std::size_t>(a)] <
           gm.lambda()[static_cast<std::size_t>(b)];
  });
  std::vector<Cluster> clusters;
  double base_lambda = 0.0;
  for (int idx : order) {
    auto is = static_cast<std::size_t>(idx);
    double l = gm.lambda()[is];
    double p = gm.pi()[is];
    if (clusters.empty() || l / base_lambda > ratio) {
      clusters.push_back(Cluster{});
      base_lambda = l;
    }
    clusters.back() = Merge(clusters.back(), Cluster{p, 1.0 / l});
  }
  // Fold clusters below the mixing-coefficient floor into their nearest
  // neighbour until every remaining cluster is significant (or one is
  // left). Mirrors the paper's observation that K = 4 collapses to 1-2
  // effective components.
  while (clusters.size() > 1) {
    std::size_t tiny = clusters.size();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].pi < pi_drop) {
        tiny = i;
        break;
      }
    }
    if (tiny == clusters.size()) break;
    std::size_t neighbour = tiny == 0 ? 1 : tiny - 1;
    clusters[neighbour] = Merge(clusters[neighbour], clusters[tiny]);
    clusters.erase(clusters.begin() + static_cast<long>(tiny));
  }
  std::vector<double> pi_out;
  std::vector<double> lambda_out;
  pi_out.reserve(clusters.size());
  lambda_out.reserve(clusters.size());
  for (const Cluster& c : clusters) {
    pi_out.push_back(c.pi);
    lambda_out.push_back(1.0 / std::max(c.var, 1e-300));
  }
  return GaussianMixture(std::move(pi_out), std::move(lambda_out));
}

}  // namespace

namespace {

// Parses one whitespace-delimited token from `iss` as a double via strtod,
// which (unlike operator>>) is required to accept the C99 hex-float forms
// %a emits — istream extraction of "0x1.8p+1" stops at the 'x' on some
// standard libraries. Returns false on a malformed token.
bool NextDouble(std::istringstream& iss, double* out) {
  std::string token;
  if (!(iss >> token)) return false;
  const char* s = token.c_str();
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

std::string EncodeGmSuffStats(const GmSuffStats& stats) {
  std::ostringstream oss;
  oss << "gm-suffstats v1 " << stats.resp_sum.size() << " " << stats.count;
  for (double v : stats.resp_sum) oss << " " << StrFormat("%a", v);
  for (double v : stats.resp_w2_sum) oss << " " << StrFormat("%a", v);
  return oss.str();
}

Status DecodeGmSuffStats(const std::string& text, GmSuffStats* out) {
  std::istringstream iss(text);
  std::string magic, version;
  int k = 0;
  long long count = 0;
  if (!(iss >> magic >> version >> k >> count) || magic != "gm-suffstats") {
    return Status::InvalidArgument("not a 'gm-suffstats' record");
  }
  if (version != "v1") {
    return Status::InvalidArgument("unsupported gm-suffstats version '" +
                                   version + "'");
  }
  if (k < 1 || k > kMaxGmComponents) {
    return Status::OutOfRange(StrFormat("component count %d outside [1, %d]",
                                        k, kMaxGmComponents));
  }
  if (count < 0) {
    return Status::OutOfRange(
        StrFormat("negative element count %lld", count));
  }
  auto ks = static_cast<std::size_t>(k);
  std::vector<double> resp_sum(ks), resp_w2_sum(ks);
  for (double& v : resp_sum) {
    if (!NextDouble(iss, &v) || !std::isfinite(v)) {
      return Status::InvalidArgument("bad resp_sum in gm-suffstats");
    }
  }
  for (double& v : resp_w2_sum) {
    if (!NextDouble(iss, &v) || !std::isfinite(v)) {
      return Status::InvalidArgument("bad resp_w2_sum in gm-suffstats");
    }
  }
  std::string extra;
  if (iss >> extra) {
    return Status::InvalidArgument("trailing garbage in gm-suffstats: '" +
                                   extra + "'");
  }
  out->resp_sum = std::move(resp_sum);
  out->resp_w2_sum = std::move(resp_w2_sum);
  out->count = count;
  return Status::Ok();
}

Status MergeEncodedSuffStats(const std::vector<std::string>& encoded,
                             GmSuffStats* out) {
  GmSuffStats decoded;
  for (std::size_t rank = 0; rank < encoded.size(); ++rank) {
    Status st = DecodeGmSuffStats(encoded[rank], &decoded);
    if (!st.ok()) {
      return Status(st.code(), StrFormat("rank %d: %s",
                                         static_cast<int>(rank),
                                         st.message().c_str()));
    }
    if (decoded.resp_sum.size() != out->resp_sum.size()) {
      return Status::FailedPrecondition(StrFormat(
          "rank %d has %d components, merge target has %d",
          static_cast<int>(rank), static_cast<int>(decoded.resp_sum.size()),
          static_cast<int>(out->resp_sum.size())));
    }
    out->Merge(decoded);
  }
  return Status::Ok();
}

}  // namespace gmreg

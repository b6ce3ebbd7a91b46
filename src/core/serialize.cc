#include "core/serialize.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace gmreg {

std::string SerializeMixture(const GaussianMixture& gm) {
  std::ostringstream oss;
  oss << "gm v1 " << gm.num_components();
  oss.precision(17);
  for (double p : gm.pi()) oss << " " << p;
  for (double l : gm.lambda()) oss << " " << l;
  return oss.str();
}

Status DeserializeMixture(const std::string& text, GaussianMixture* out) {
  std::istringstream iss(text);
  std::string magic, version;
  int k = 0;
  if (!(iss >> magic >> version >> k) || magic != "gm" || version != "v1") {
    return Status::InvalidArgument("not a 'gm v1' mixture record");
  }
  if (k < 1 || k > kMaxGmComponents) {
    return Status::OutOfRange(StrFormat("component count %d outside [1, %d]",
                                        k, kMaxGmComponents));
  }
  std::vector<double> pi(static_cast<std::size_t>(k));
  std::vector<double> lambda(static_cast<std::size_t>(k));
  for (double& p : pi) {
    if (!(iss >> p)) return Status::InvalidArgument("truncated pi values");
    if (!std::isfinite(p)) {
      return Status::OutOfRange("non-finite mixing coefficient");
    }
    if (p < 0.0) return Status::OutOfRange("negative mixing coefficient");
  }
  double total = 0.0;
  for (double p : pi) total += p;
  if (total <= 0.0) return Status::OutOfRange("pi sums to zero");
  for (double& l : lambda) {
    if (!(iss >> l)) return Status::InvalidArgument("truncated lambda values");
    if (!std::isfinite(l)) return Status::OutOfRange("non-finite precision");
    if (l <= 0.0) return Status::OutOfRange("non-positive precision");
  }
  // Exactly K of each and nothing more: a K that understates the value
  // count (or any other trailing garbage) is a malformed record, not data
  // to silently drop — checkpoint v2 (io/checkpoint.h) builds on this
  // parser being strict.
  std::string extra;
  if (iss >> extra) {
    return Status::InvalidArgument("trailing garbage after 'gm v1' record: '" +
                                   extra + "'");
  }
  *out = GaussianMixture(std::move(pi), std::move(lambda));
  return Status::Ok();
}

Status SaveMixture(const GaussianMixture& gm, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out << SerializeMixture(gm) << "\n";
  return out.good() ? Status::Ok()
                    : Status::Internal("write failed: " + path);
}

Status LoadMixture(const std::string& path, GaussianMixture* out) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);
  std::string line;
  std::getline(in, line);
  GMREG_RETURN_IF_ERROR(DeserializeMixture(line, out));
  // The record is single-line by construction; extra lines mean the file
  // is not what SaveMixture wrote.
  std::string rest;
  while (std::getline(in, rest)) {
    if (rest.find_first_not_of(" \t\r") != std::string::npos) {
      return Status::InvalidArgument("trailing garbage after mixture line in " +
                                     path);
    }
  }
  return Status::Ok();
}

}  // namespace gmreg

#include "core/factory.h"

#include <cstdlib>
#include <map>

#include "core/gm_regularizer.h"
#include "reg/dynamic_prior.h"
#include "reg/epgig.h"
#include "reg/norms.h"
#include "util/string_util.h"

namespace gmreg {
namespace {

// Parses "key=value,key=value" into a map; returns false on syntax errors.
bool ParseKeyValues(const std::string& text,
                    std::map<std::string, std::string>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    std::string item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return false;
    }
    (*out)[item.substr(0, eq)] = item.substr(eq + 1);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

Status ParseDouble(const std::map<std::string, std::string>& kv,
                   const std::string& key, bool required, double* out) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    if (required) {
      return Status::InvalidArgument("missing required key '" + key + "'");
    }
    return Status::Ok();
  }
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("key '%s': '%s' is not a number", key.c_str(),
                  it->second.c_str()));
  }
  *out = v;
  return Status::Ok();
}

Status CheckKnownKeys(const std::map<std::string, std::string>& kv,
                      std::initializer_list<const char*> known) {
  for (const auto& [key, value] : kv) {
    (void)value;
    bool found = false;
    for (const char* k : known) {
      if (key == k) found = true;
    }
    if (!found) {
      return Status::InvalidArgument("unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

const std::vector<std::string>& RegularizerKinds() {
  static const auto& kinds = *new std::vector<std::string>{
      "none", "l1", "l2", "elastic", "huber", "gm", "epgig", "dynprior"};
  return kinds;
}

const std::vector<std::string>& RegularizerExampleConfigs() {
  static const auto& configs = *new std::vector<std::string>{
      "none",
      "l1:beta=0.5",
      "l2:beta=1.25",
      "elastic:beta=1,l1_ratio=0.3",
      "huber:beta=1,mu=0.1",
      "gm:gamma=0.001,k=3,warmup=1,im=2,ig=4",
      "epgig:mode=laplace,alpha=2,interval=2",
      "epgig:mode=student,nu=5,tau=2",
      "dynprior:beta=2,schedule=exp,decay=0.8,floor=0.05",
  };
  return configs;
}

Status MakeRegularizerFromConfig(const std::string& config,
                                 std::int64_t num_dims,
                                 std::unique_ptr<Regularizer>* out) {
  std::size_t colon = config.find(':');
  std::string kind = config.substr(0, colon);
  std::map<std::string, std::string> kv;
  if (colon != std::string::npos && colon + 1 >= config.size()) {
    return Status::InvalidArgument("empty key=value list: " + config);
  }
  if (colon != std::string::npos &&
      !ParseKeyValues(config.substr(colon + 1), &kv)) {
    return Status::InvalidArgument("malformed key=value list: " + config);
  }

  if (kind == "none") {
    GMREG_RETURN_IF_ERROR(CheckKnownKeys(kv, {}));
    *out = std::make_unique<NoReg>();
    return Status::Ok();
  }
  if (kind == "l1" || kind == "l2") {
    GMREG_RETURN_IF_ERROR(CheckKnownKeys(kv, {"beta"}));
    double beta = 0.0;
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "beta", /*required=*/true, &beta));
    if (beta < 0.0) return Status::OutOfRange("beta must be >= 0");
    if (kind == "l1") {
      *out = std::make_unique<L1Reg>(beta);
    } else {
      *out = std::make_unique<L2Reg>(beta);
    }
    return Status::Ok();
  }
  if (kind == "elastic") {
    GMREG_RETURN_IF_ERROR(CheckKnownKeys(kv, {"beta", "l1_ratio"}));
    double beta = 0.0, ratio = 0.5;
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "beta", true, &beta));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "l1_ratio", false, &ratio));
    if (beta < 0.0) return Status::OutOfRange("beta must be >= 0");
    if (ratio < 0.0 || ratio > 1.0) {
      return Status::OutOfRange("l1_ratio must be in [0, 1]");
    }
    *out = std::make_unique<ElasticNetReg>(beta, ratio);
    return Status::Ok();
  }
  if (kind == "huber") {
    GMREG_RETURN_IF_ERROR(CheckKnownKeys(kv, {"beta", "mu"}));
    double beta = 0.0, mu = 0.1;
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "beta", true, &beta));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "mu", false, &mu));
    if (beta < 0.0) return Status::OutOfRange("beta must be >= 0");
    if (mu <= 0.0) return Status::OutOfRange("mu must be > 0");
    *out = std::make_unique<HuberReg>(beta, mu);
    return Status::Ok();
  }
  if (kind == "gm") {
    GMREG_RETURN_IF_ERROR(CheckKnownKeys(
        kv, {"k", "gamma", "a_factor", "alpha_exp", "min_precision", "init",
             "warmup", "im", "ig", "threads"}));
    if (num_dims <= 0) {
      return Status::FailedPrecondition(
          "gm regularizer requires num_dims > 0 (the parameter count M)");
    }
    GmOptions opts;
    double v = 0.0;
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "gamma", false, &opts.gamma));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "a_factor", false, &opts.a_factor));
    GMREG_RETURN_IF_ERROR(
        ParseDouble(kv, "alpha_exp", false, &opts.alpha_exponent));
    GMREG_RETURN_IF_ERROR(
        ParseDouble(kv, "min_precision", false, &opts.min_precision));
    if (kv.count("k") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "k", true, &v));
      if (v < 1.0 || v > kMaxGmComponents) {
        return Status::OutOfRange(
            StrFormat("k must be in [1, %d]", kMaxGmComponents));
      }
      opts.num_components = static_cast<int>(v);
    }
    if (auto it = kv.find("init"); it != kv.end()) {
      if (it->second != "identical" && it->second != "linear" &&
          it->second != "proportional") {
        return Status::InvalidArgument("unknown init method '" + it->second +
                                       "'");
      }
      opts.init_method = ParseGmInitMethod(it->second);
    }
    if (kv.count("warmup") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "warmup", true, &v));
      if (v < 0.0) return Status::OutOfRange("warmup must be >= 0");
      opts.lazy.warmup_epochs = static_cast<int>(v);
    }
    if (kv.count("im") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "im", true, &v));
      if (v < 1.0) return Status::OutOfRange("im must be >= 1");
      opts.lazy.greg_interval = static_cast<std::int64_t>(v);
    }
    if (kv.count("ig") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "ig", true, &v));
      if (v < 1.0) return Status::OutOfRange("ig must be >= 1");
      opts.lazy.gm_interval = static_cast<std::int64_t>(v);
    }
    if (kv.count("threads") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "threads", true, &v));
      if (v < 0.0 || v > 64.0) {
        return Status::OutOfRange("threads must be in [0, 64]");
      }
      opts.num_threads = static_cast<int>(v);
    }
    if (opts.gamma <= 0.0) return Status::OutOfRange("gamma must be > 0");
    if (opts.min_precision <= 0.0) {
      return Status::OutOfRange("min_precision must be > 0");
    }
    *out = std::make_unique<GmRegularizer>("config", num_dims, opts);
    return Status::Ok();
  }
  if (kind == "epgig") {
    GMREG_RETURN_IF_ERROR(CheckKnownKeys(
        kv, {"mode", "alpha", "nu", "tau", "interval", "warmup"}));
    if (num_dims <= 0) {
      return Status::FailedPrecondition(
          "epgig regularizer requires num_dims > 0 (the parameter count M)");
    }
    EpGigOptions opts;
    if (auto it = kv.find("mode"); it != kv.end()) {
      if (it->second == "laplace") {
        opts.mode = EpGigMode::kLaplace;
      } else if (it->second == "student") {
        opts.mode = EpGigMode::kStudent;
      } else {
        return Status::InvalidArgument("unknown epgig mode '" + it->second +
                                       "'");
      }
    }
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "alpha", false, &opts.alpha));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "nu", false, &opts.nu));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "tau", false, &opts.tau));
    if (opts.alpha <= 0.0) return Status::OutOfRange("alpha must be > 0");
    if (opts.nu <= 0.0) return Status::OutOfRange("nu must be > 0");
    if (opts.tau <= 0.0) return Status::OutOfRange("tau must be > 0");
    double v = 0.0;
    if (kv.count("interval") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "interval", true, &v));
      if (v < 1.0) return Status::OutOfRange("interval must be >= 1");
      opts.interval = static_cast<std::int64_t>(v);
    }
    if (kv.count("warmup") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "warmup", true, &v));
      if (v < 0.0) return Status::OutOfRange("warmup must be >= 0");
      opts.warmup_epochs = static_cast<int>(v);
    }
    *out = std::make_unique<EpGigReg>(num_dims, opts);
    return Status::Ok();
  }
  if (kind == "dynprior") {
    GMREG_RETURN_IF_ERROR(CheckKnownKeys(
        kv, {"beta", "schedule", "decay", "rate", "floor", "period"}));
    DynPriorOptions opts;
    if (auto it = kv.find("schedule"); it != kv.end()) {
      if (it->second == "exp") {
        opts.schedule = DynPriorSchedule::kExp;
      } else if (it->second == "inv") {
        opts.schedule = DynPriorSchedule::kInv;
      } else if (it->second == "cos") {
        opts.schedule = DynPriorSchedule::kCosine;
      } else {
        return Status::InvalidArgument("unknown dynprior schedule '" +
                                       it->second + "'");
      }
    }
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "beta", false, &opts.beta));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "decay", false, &opts.decay));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "rate", false, &opts.rate));
    GMREG_RETURN_IF_ERROR(ParseDouble(kv, "floor", false, &opts.floor));
    if (opts.beta < 0.0) return Status::OutOfRange("beta must be >= 0");
    if (opts.decay <= 0.0 || opts.decay > 1.0) {
      return Status::OutOfRange("decay must be in (0, 1]");
    }
    if (opts.rate < 0.0) return Status::OutOfRange("rate must be >= 0");
    if (opts.floor < 0.0 || opts.floor > opts.beta) {
      return Status::OutOfRange("floor must be in [0, beta]");
    }
    double v = 0.0;
    if (kv.count("period") != 0u) {
      GMREG_RETURN_IF_ERROR(ParseDouble(kv, "period", true, &v));
      if (v < 1.0) return Status::OutOfRange("period must be >= 1");
      opts.period = static_cast<int>(v);
    }
    *out = std::make_unique<DynamicPriorReg>(opts);
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown regularizer kind '" + kind + "'");
}

}  // namespace gmreg

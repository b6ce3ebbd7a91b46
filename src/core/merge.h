#ifndef GMREG_CORE_MERGE_H_
#define GMREG_CORE_MERGE_H_

#include <string>
#include <vector>

#include "core/em.h"
#include "core/gaussian_mixture.h"
#include "util/status.h"

namespace gmreg {

/// Merges components whose precisions are within a multiplicative factor of
/// each other. During GM learning some of the initial K = 4 components
/// drift onto (nearly) the same precision — the paper observes they
/// "gradually merge" so that one or two effective components remain
/// (Sec. V-B1). Tables IV/V and Fig. 3 report the merged view.
///
/// Merged mixing coefficient: sum of member pi. Merged precision: inverse
/// of the pi-weighted mean variance (the exact variance of the merged
/// zero-mean sub-mixture). Components with pi below `pi_drop` are folded
/// into their nearest neighbour regardless of ratio.
///
/// `ratio` >= 1; components i, j merge when
/// max(l_i,l_j)/min(l_i,l_j) <= ratio.
GaussianMixture MergeSimilarComponents(const GaussianMixture& gm,
                                       double ratio = 1.5,
                                       double pi_drop = 0.01);

// ---------------------------------------------------------------------------
// Suffstat wire format (src/dist).
//
// The distributed E-step ships per-worker GmSuffStats to the coordinator,
// which folds them in fixed rank order (GmSuffStats::Merge). For the global
// update to stay bitwise identical to the in-process merge, the encoding
// must round-trip every double exactly — so values are rendered as C99
// hex-floats (%a), which strtod parses back to the identical bit pattern,
// including negative zeros and subnormals. One line, whitespace-separated:
//
//   gm-suffstats v1 <K> <count> <resp_sum[0..K)> <resp_w2_sum[0..K)>
// ---------------------------------------------------------------------------

/// Serializes `stats` as a single `gm-suffstats v1` line (exact hex-float
/// round trip; see above). Non-finite accumulators are encodable — the
/// decoder, not the encoder, is the validation boundary.
std::string EncodeGmSuffStats(const GmSuffStats& stats);

/// Parses an EncodeGmSuffStats line into `*out` (fully overwritten).
/// Rejects malformed input, non-finite values, K outside
/// [1, kMaxGmComponents], a negative count, and trailing garbage.
Status DecodeGmSuffStats(const std::string& text, GmSuffStats* out);

/// Decodes every line of `encoded` and folds it into `*out` in index
/// (= worker rank) order — the wire-side mirror of the chunk-order fold
/// the E-step does in process. `*out` must already be Reset() to the
/// right component count.
Status MergeEncodedSuffStats(const std::vector<std::string>& encoded,
                             GmSuffStats* out);

}  // namespace gmreg

#endif  // GMREG_CORE_MERGE_H_

// detlint corpus: known-bad. The wrong way to parallelize an incremental
// (ECO) repropagation worklist: chunks of one level bucket push partial
// arrival sums into their fanout targets through an indirect index. Two
// bucket gates sharing a fanout race on the same slot, and the fold order
// depends on the chunk schedule. A parallel body may only write index-keyed
// slots that the caller then folds in a fixed order (as run_monte_carlo
// does); ssta/incremental.cpp avoids the question by draining each bucket
// serially.
// Expected finding: DET003.

#include <cstddef>
#include <vector>

template <class Fn>
void parallel_for(std::size_t n, std::size_t grain, Fn&& fn);

void repropagate_level(const std::vector<int>& bucket, const std::vector<int>& fanout_of,
                       const std::vector<double>& arrival, std::vector<double>& partial) {
  parallel_for(bucket.size(), 32, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const int gate = bucket[i];
      partial[fanout_of[gate]] += arrival[gate];
    }
  });
}

// The network-oblivious machine models of Section IV.
//
// An NO algorithm is specified for M(N): a complete network of N processing
// elements executing synchronous supersteps.  Its complexity is evaluated on
// M(p, B) for p <= N processors and block size B: each processor simulates
// N/p consecutive PEs, and the communication complexity is the sum over
// supersteps of the maximum number of B-word blocks any processor sends or
// receives in that superstep.  The computation complexity is the analogous
// sum of per-processor operation maxima.
//
// NoMachine is a pure accounting engine: algorithms perform their own data
// movement on host memory and *declare* every PE-to-PE transfer with
// send(); the engine folds the traffic onto any number of (p, B)
// configurations simultaneously, and onto a D-BSP(P, g, B) cost model
// (Bilardi et al. [18]): each superstep is labeled with the smallest
// cluster granularity containing all of its messages and charged
// h_s * g_{i_s} with block size B_{i_s}.
//
// Executors declare every element access, so send() and compute() are the
// hot path.  A call that repeats the previous call's PE pair (send) or PE
// (compute) only adds to a pending sum.  The rest are O(1) per fold with
// no hashing or division: each fold maps PEs to processors through a table
// built once (O(N) words per fold), processor-pair words accumulate in a
// dense p x p matrix (folds of up to 256 processors; wider folds use a
// hash map), and touched processors are tracked with per-processor stamps.
// end_superstep() costs O(p + pairs used) and parallel frames reuse their
// scratch, so dense folds allocate nothing once the machine is warm.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/status.hpp"
#include "obs/trace.hpp"

namespace obliv::no {

/// One folding M(p, B) under which complexity is measured.
struct FoldConfig {
  std::uint32_t p;
  std::uint64_t block;
};

/// D-BSP(P, g, B) parameters: g[i] and B[i] for cluster levels
/// i = 0..log2(P)-1 (level i has 2^i clusters of P/2^i processors).
struct DbspConfig {
  std::uint32_t P = 0;  ///< 0 disables D-BSP accounting
  std::vector<double> g;
  std::vector<std::uint64_t> B;

  /// A conventional instance: g_i ~ sqrt(cluster size) (mesh-like costs),
  /// B_i halving with i.
  static DbspConfig mesh_like(std::uint32_t P);
};

class NoMachine {
 public:
  /// Validating constructor; throws obliv::Error when the machine is
  /// degenerate (0 PEs, a fold with p == 0 / p > n_pes / block == 0, or an
  /// inconsistent D-BSP description) -- each of those used to be a
  /// release-mode division by zero.  Prefer make() on untrusted input.
  NoMachine(std::uint64_t n_pes, std::vector<FoldConfig> folds,
            DbspConfig dbsp = {});

  /// Non-throwing companion returning the machine or a typed error
  /// (kInvalidConfig for degenerate descriptions).
  static Result<NoMachine> make(std::uint64_t n_pes,
                                std::vector<FoldConfig> folds,
                                DbspConfig dbsp = {}) noexcept;

  std::uint64_t pes() const { return n_; }
  const std::vector<FoldConfig>& folds() const { return folds_; }

  /// Declares that PE `src` sends `words` words to PE `dst` in the current
  /// superstep.  src == dst is free (local) and ignored.
  void send(std::uint64_t src_pe, std::uint64_t dst_pe, std::uint64_t words);

  /// Declares `ops` units of local computation at `pe`.
  void compute(std::uint64_t pe, std::uint64_t ops);

  /// Closes the current superstep and accumulates its costs.
  void end_superstep();

  /// Parallel-branch accounting: branches running on *disjoint* PE groups
  /// execute simultaneously in the real machine, so their costs combine by
  /// max, not sum.  Usage:
  ///   parallel_begin();
  ///   for each branch { run branch; parallel_next(); }
  ///   parallel_end();
  /// Nesting is allowed.  Each call fences the current superstep.
  void parallel_begin();
  void parallel_next();
  void parallel_end();

  /// Sum over supersteps of max-per-processor blocks sent/received, under
  /// fold `idx`.
  std::uint64_t communication(std::size_t idx) const;

  /// Sum over supersteps of max-per-processor operations, under fold `idx`.
  std::uint64_t computation(std::size_t idx) const;

  /// D-BSP communication time (0 if disabled).
  double dbsp_time() const { return dbsp_time_; }

  std::uint64_t supersteps() const { return supersteps_; }
  std::uint64_t total_message_words() const { return total_words_; }

  /// Attaches an obs::Tracer (nullptr detaches): every superstep close
  /// emits a kSuperstep event on lane obs::kSuperstepLane carrying the
  /// superstep index, its message words, and the fold-0 per-processor block
  /// maximum h.  The clock becomes the cumulative message-word counter, so
  /// NO traces are deterministic like the sim's.
  void set_tracer(obs::Tracer* tracer);

  void reset();

 private:
  /// Processors touched per accounting context -- the top level, or one
  /// branch of an open parallel frame.  One flat list holds the contexts'
  /// sets as a stack of ranges (the current context owns [start(), size())),
  /// and a per-processor stamp of the context that last inserted it makes
  /// insert() O(1) without hashing.  Frames open and close contexts, so no
  /// set is copied when a branch starts or ends.
  class TouchStack {
   public:
    explicit TouchStack(std::uint32_t p = 0) : stamp_(p, 0) {}
    void insert(std::uint32_t q) {
      if (stamp_[q] != ctx_) {
        stamp_[q] = ctx_;
        list_.push_back(q);
      }
    }
    std::size_t start() const { return start_; }
    std::size_t size() const { return list_.size(); }
    std::uint32_t operator[](std::size_t i) const { return list_[i]; }
    /// Starts a new, empty context on top of the stack.
    void open() {
      start_ = list_.size();
      ++ctx_;
    }
    /// Makes the context that starts at `outer` current again, keeping the
    /// processors of [outer, end) once each and dropping everything above.
    void close(std::size_t outer, std::size_t end);
    void clear();

   private:
    std::vector<std::uint64_t> stamp_;  // per processor
    std::vector<std::uint32_t> list_;
    std::size_t start_ = 0;
    std::uint64_t ctx_ = 1;  // stamps of live entries; 0 is never current
  };

  /// One folding of the N PEs onto p processors (an M(p, B) fold or the
  /// D-BSP machine): the PE -> processor map and the processor-pair traffic
  /// of the open superstep.
  struct Folding {
    /// Widest folding accumulated in a dense p x p matrix (512 KiB).
    static constexpr std::uint32_t kDenseMaxP = 256;

    Folding() = default;
    Folding(std::uint64_t n_pes, std::uint32_t p);

    /// Adds `words` (> 0) from processor sp to processor dp != sp.
    void add(std::uint32_t sp, std::uint32_t dp, std::uint64_t words) {
      if (!pair_words.empty()) {
        std::uint64_t& w = pair_words[std::size_t{sp} * p + dp];
        if (w == 0) live_pairs.push_back({sp, dp});
        w += words;
      } else {
        sparse_words[(std::uint64_t{sp} << 32) | dp] += words;
      }
      touched.insert(sp);
      touched.insert(dp);
    }
    bool has_traffic() const {
      return !live_pairs.empty() || !sparse_words.empty();
    }
    /// Ends the superstep's traffic: returns h, the maximum number of
    /// B-word blocks any processor sends or receives.
    std::uint64_t close(std::uint64_t block);
    void reset();

    std::uint32_t p = 0;
    std::vector<std::uint32_t> proc_of;  // PE -> min(pe / (N / p), p - 1)
    // Words per (src, dst) processor pair: dense with the list of its live
    // cells when p <= kDenseMaxP, else a hash map.
    std::vector<std::uint64_t> pair_words;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> live_pairs;
    std::unordered_map<std::uint64_t, std::uint64_t> sparse_words;
    // Per-processor scratch, all zero between calls: close()'s block
    // tallies and the parallel-frame combine accumulator.
    std::vector<std::uint64_t> out_blocks, in_blocks, acc;
    TouchStack touched;
  };

  struct FoldState {
    Folding net;
    std::vector<std::uint64_t> ops;  // per processor, current superstep
    std::uint64_t comm_total = 0;
    std::uint64_t comp_total = 0;
  };

  /// One open parallel_begin/next/end frame.  Frames live in a stack that
  /// keeps its capacity, so steady-state frames allocate nothing.  Touched
  /// ranges are per channel: the folds in order, then the D-BSP machine.
  struct ParFrame {
    std::uint64_t base_steps = 0, best_steps = 0;
    double base_dbsp = 0;
    std::vector<std::uint64_t> base_comm, base_comp;  // per fold
    // Completed branch b: cost deltas of fold f at [b * folds + f], D-BSP
    // delta at [b], and the end of its touched range in channel c at
    // [b * channels + c] (branch b's range starts where b - 1's ends).
    std::vector<std::uint64_t> comm, comp;
    std::vector<double> dbsp;
    std::vector<std::size_t> touch_end;
    // Per channel: start of the enclosing context's range and of branch 0's.
    std::vector<std::size_t> outer_start, first_start;
  };

  std::size_t channels() const { return states_.size() + 1; }
  TouchStack& touched(std::size_t c) {
    return c < states_.size() ? states_[c].net.touched : dbsp_net_.touched;
  }

  /// Combines the branch deltas of channel `c` in frame `fr`: each branch's
  /// delta is charged to every processor it touched and the busiest
  /// processor is the result, so disjoint branches combine by max and
  /// co-located ones add.  (Attributing the full branch delta to each
  /// touched processor is an upper bound for branches that straddle
  /// processors.)  `acc` is all-zero per-processor scratch, restored.
  template <class T>
  T combine_branches(const ParFrame& fr, std::size_t c, std::vector<T>& acc,
                     const T* delta, std::size_t stride);

  /// Applies the pending send() / compute() sums to every folding.
  void flush_sends();
  void flush_computes();

  std::uint64_t n_;
  std::vector<FoldConfig> folds_;
  std::vector<FoldState> states_;
  std::vector<ParFrame> frames_;  // [0, depth_) are open
  std::size_t depth_ = 0;
  DbspConfig dbsp_;
  Folding dbsp_net_;  // the p = dbsp_.P folding; empty when D-BSP is off
  std::vector<double> dbsp_acc_;  // combine scratch, per D-BSP processor
  std::uint32_t dbsp_worst_level_ = 0;  // largest cluster needed (level idx)
  double dbsp_time_ = 0;
  std::uint64_t supersteps_ = 0;
  std::uint64_t total_words_ = 0;
  std::uint64_t step_words_ = 0;  // words declared in the open superstep
  // Declarations not yet applied to the foldings: consecutive send()s
  // between one PE pair, and compute()s at one PE, are summed here first
  // (executors repeat them per element).  That is exact: the open
  // superstep keeps only per-pair and per-processor sums and the set of
  // processors touched.  Flushed when the pair or PE changes and before a
  // superstep or branch closes.
  std::uint64_t pend_src_ = 0, pend_dst_ = 0, pend_words_ = 0;
  std::uint64_t pend_pe_ = 0, pend_ops_ = 0;
  bool superstep_dirty_ = false;
  obs::Tracer* tracer_ = nullptr;
  // Per-superstep message-volume distribution, registered by set_tracer()
  // (null iff tracer_ is).
  obs::Histogram* hist_superstep_words_ = nullptr;
};

}  // namespace obliv::no

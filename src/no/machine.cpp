#include "no/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "util/bits.hpp"

namespace obliv::no {

DbspConfig DbspConfig::mesh_like(std::uint32_t P) {
  DbspConfig cfg;
  cfg.P = P;
  const unsigned levels = util::ilog2(std::uint64_t{P} | 1);
  for (unsigned i = 0; i < std::max(1u, levels); ++i) {
    const double cluster = static_cast<double>(P) / double(1u << i);
    cfg.g.push_back(std::sqrt(cluster));
    cfg.B.push_back(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::sqrt(cluster))));
  }
  return cfg;
}

namespace {

/// Typed validation of an M(p, B) / D-BSP machine description.  Every
/// violation below was previously an assert (compiled out of release
/// builds) followed by a division by zero in send()/end_superstep().
Status validate_machine(std::uint64_t n_pes,
                        const std::vector<FoldConfig>& folds,
                        const DbspConfig& dbsp) {
  auto fail = [](const std::string& msg) {
    return Status::error(ErrorCode::kInvalidConfig, "NoMachine: " + msg);
  };
  if (n_pes == 0) return fail("at least one processing element is required");
  for (std::size_t f = 0; f < folds.size(); ++f) {
    const std::string at = "fold " + std::to_string(f) + ": ";
    if (folds[f].p == 0) return fail(at + "p must be positive");
    if (folds[f].p > n_pes) {
      return fail(at + "p = " + std::to_string(folds[f].p) +
                  " exceeds the number of PEs (" + std::to_string(n_pes) +
                  ")");
    }
    if (folds[f].block == 0) return fail(at + "block size must be positive");
  }
  if (dbsp.P > 0) {
    if (dbsp.P > n_pes) return fail("D-BSP P exceeds the number of PEs");
    if (dbsp.g.empty() || dbsp.g.size() != dbsp.B.size()) {
      return fail("D-BSP g and B must be non-empty and equal-length");
    }
    for (std::size_t i = 0; i < dbsp.B.size(); ++i) {
      if (dbsp.B[i] == 0) return fail("D-BSP block sizes must be positive");
    }
  }
  return Status();
}

}  // namespace

void NoMachine::TouchStack::close(std::size_t outer, std::size_t end) {
  start_ = outer;
  ++ctx_;
  std::size_t w = outer;
  for (std::size_t i = outer; i < end; ++i) {
    const std::uint32_t q = list_[i];
    if (stamp_[q] != ctx_) {
      stamp_[q] = ctx_;
      list_[w++] = q;
    }
  }
  list_.resize(w);
}

void NoMachine::TouchStack::clear() {
  list_.clear();
  start_ = 0;
  ++ctx_;
}

NoMachine::Folding::Folding(std::uint64_t n_pes, std::uint32_t procs)
    : p(procs), out_blocks(procs, 0), in_blocks(procs, 0), acc(procs, 0),
      touched(procs) {
  // min(pe / per, p - 1) without a division per PE: runs of `per` PEs per
  // processor, the remainder on the last one.
  const std::uint64_t per = n_pes / p;
  proc_of.reserve(n_pes);
  for (std::uint32_t q = 0; q < p; ++q) proc_of.insert(proc_of.end(), per, q);
  proc_of.resize(n_pes, p - 1);
  if (p <= kDenseMaxP) pair_words.assign(std::size_t{p} * p, 0);
}

std::uint64_t NoMachine::Folding::close(std::uint64_t block) {
  auto tally = [&](std::uint32_t sp, std::uint32_t dp, std::uint64_t words) {
    const std::uint64_t blocks = util::ceil_div(words, block);
    out_blocks[sp] += blocks;
    in_blocks[dp] += blocks;
  };
  // Every processor with a nonzero tally is an endpoint of some live pair,
  // so h is the maximum over the pairs' endpoints; each tally is final
  // before the second pass reads it, and zeroed once read.
  auto peak = [&](std::uint32_t sp, std::uint32_t dp, std::uint64_t& h) {
    h = std::max({h, out_blocks[sp], in_blocks[dp]});
    out_blocks[sp] = 0;
    in_blocks[dp] = 0;
  };
  std::uint64_t h = 0;
  if (!pair_words.empty()) {
    for (const auto& [sp, dp] : live_pairs) {
      tally(sp, dp, pair_words[std::size_t{sp} * p + dp]);
    }
    for (const auto& [sp, dp] : live_pairs) {
      peak(sp, dp, h);
      pair_words[std::size_t{sp} * p + dp] = 0;
    }
    live_pairs.clear();
  } else {
    for (const auto& [key, words] : sparse_words) {
      tally(static_cast<std::uint32_t>(key >> 32),
            static_cast<std::uint32_t>(key), words);
    }
    for (const auto& [key, words] : sparse_words) {
      peak(static_cast<std::uint32_t>(key >> 32),
           static_cast<std::uint32_t>(key), h);
    }
    sparse_words.clear();
  }
  return h;
}

void NoMachine::Folding::reset() {
  for (const auto& [sp, dp] : live_pairs) {
    pair_words[std::size_t{sp} * p + dp] = 0;
  }
  live_pairs.clear();
  sparse_words.clear();
  touched.clear();
}

NoMachine::NoMachine(std::uint64_t n_pes, std::vector<FoldConfig> folds,
                     DbspConfig dbsp)
    : n_(n_pes), folds_(std::move(folds)), dbsp_(std::move(dbsp)) {
  validate_machine(n_, folds_, dbsp_).throw_if_error();
  states_.resize(folds_.size());
  for (std::size_t f = 0; f < folds_.size(); ++f) {
    states_[f].net = Folding(n_, folds_[f].p);
    states_[f].ops.assign(folds_[f].p, 0);
  }
  if (dbsp_.P > 0) {
    dbsp_net_ = Folding(n_, dbsp_.P);
    dbsp_acc_.assign(dbsp_.P, 0.0);
  }
  dbsp_worst_level_ =
      dbsp_.g.empty() ? 0 : static_cast<std::uint32_t>(dbsp_.g.size()) - 1;
}

Result<NoMachine> NoMachine::make(std::uint64_t n_pes,
                                  std::vector<FoldConfig> folds,
                                  DbspConfig dbsp) noexcept {
  try {
    return NoMachine(n_pes, std::move(folds), std::move(dbsp));
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    return Status::error(ErrorCode::kResourceExhausted,
                         "allocation failed while building NoMachine");
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what());
  }
}

void NoMachine::flush_sends() {
  if (pend_words_ == 0) return;
  for (FoldState& st : states_) {
    const std::uint32_t sp = st.net.proc_of[pend_src_];
    const std::uint32_t dp = st.net.proc_of[pend_dst_];
    if (sp != dp) st.net.add(sp, dp, pend_words_);
  }
  if (dbsp_.P > 0) {
    const std::uint32_t sp = dbsp_net_.proc_of[pend_src_];
    const std::uint32_t dp = dbsp_net_.proc_of[pend_dst_];
    if (sp != dp) {
      dbsp_net_.add(sp, dp, pend_words_);
      // Cluster level i has clusters of P / 2^i processors; the message
      // needs the smallest i (largest cluster) with sp, dp in one cluster.
      std::uint32_t level = static_cast<std::uint32_t>(dbsp_.g.size()) - 1;
      while (level > 0 &&
             (sp / (dbsp_.P >> level)) != (dp / (dbsp_.P >> level))) {
        --level;
      }
      dbsp_worst_level_ = std::min(dbsp_worst_level_, level);
    }
  }
  pend_words_ = 0;
}

void NoMachine::flush_computes() {
  if (pend_ops_ == 0) return;
  for (FoldState& st : states_) {
    const std::uint32_t q = st.net.proc_of[pend_pe_];
    st.ops[q] += pend_ops_;
    st.net.touched.insert(q);
  }
  if (dbsp_.P > 0) dbsp_net_.touched.insert(dbsp_net_.proc_of[pend_pe_]);
  pend_ops_ = 0;
}

void NoMachine::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  hist_superstep_words_ = nullptr;
  if (tracer != nullptr) {
    tracer->set_logical_clock(&total_words_);
    tracer->name_lane(obs::kSuperstepLane, "supersteps");
    hist_superstep_words_ = &tracer->counters().histogram("no.superstep.words");
  }
}

void NoMachine::end_superstep() {
  if (!superstep_dirty_) return;
  flush_sends();
  flush_computes();
  ++supersteps_;
  std::uint64_t fold0_h = 0;
  for (std::size_t f = 0; f < folds_.size(); ++f) {
    FoldState& st = states_[f];
    const std::uint64_t h = st.net.close(folds_[f].block);
    if (f == 0) fold0_h = h;
    st.comm_total += h;
    std::uint64_t w = 0;
    for (const std::uint64_t ops : st.ops) w = std::max(w, ops);
    st.comp_total += w;
    std::fill(st.ops.begin(), st.ops.end(), 0);
  }
  if (dbsp_.P > 0 && dbsp_net_.has_traffic()) {
    const std::uint32_t lvl = dbsp_worst_level_;
    const std::uint64_t h = dbsp_net_.close(dbsp_.B[lvl]);
    dbsp_time_ += static_cast<double>(h) * dbsp_.g[lvl];
  }
  dbsp_worst_level_ =
      dbsp_.g.empty() ? 0 : static_cast<std::uint32_t>(dbsp_.g.size()) - 1;
  if (tracer_ != nullptr) {
    hist_superstep_words_->record(step_words_);
    tracer_->emit(0, obs::EventKind::kSuperstep, 0, obs::kSuperstepLane,
                  supersteps_ - 1, step_words_, fold0_h);
  }
  step_words_ = 0;
  superstep_dirty_ = false;
}

template <class T>
T NoMachine::combine_branches(const ParFrame& fr, std::size_t c,
                              std::vector<T>& acc, const T* delta,
                              std::size_t stride) {
  const TouchStack& ts = touched(c);
  const std::size_t C = channels();
  const std::size_t branches = fr.touch_end.size() / C;
  T best{};
  std::size_t lo = fr.first_start[c];
  for (std::size_t b = 0; b < branches; ++b) {
    const std::size_t hi = fr.touch_end[b * C + c];
    for (std::size_t i = lo; i < hi; ++i) {
      T& v = acc[ts[i]];
      v += delta[b * stride];
      best = std::max(best, v);
    }
    lo = hi;
  }
  for (std::size_t i = fr.first_start[c]; i < lo; ++i) acc[ts[i]] = T{};
  return best;
}

void NoMachine::parallel_begin() {
  end_superstep();
  if (depth_ == frames_.size()) frames_.emplace_back();
  ParFrame& fr = frames_[depth_++];
  fr.base_steps = supersteps_;
  fr.best_steps = 0;
  fr.base_dbsp = dbsp_time_;
  fr.base_comm.clear();
  fr.base_comp.clear();
  for (const FoldState& st : states_) {
    fr.base_comm.push_back(st.comm_total);
    fr.base_comp.push_back(st.comp_total);
  }
  fr.comm.clear();
  fr.comp.clear();
  fr.dbsp.clear();
  fr.touch_end.clear();
  fr.outer_start.clear();
  fr.first_start.clear();
  for (std::size_t c = 0; c < channels(); ++c) {
    TouchStack& ts = touched(c);
    fr.outer_start.push_back(ts.start());
    ts.open();
    fr.first_start.push_back(ts.start());
  }
}

void NoMachine::parallel_next() {
  end_superstep();
  ParFrame& fr = frames_[depth_ - 1];
  for (std::size_t i = 0; i < states_.size(); ++i) {
    fr.comm.push_back(states_[i].comm_total - fr.base_comm[i]);
    fr.comp.push_back(states_[i].comp_total - fr.base_comp[i]);
    states_[i].comm_total = fr.base_comm[i];
    states_[i].comp_total = fr.base_comp[i];
  }
  fr.dbsp.push_back(dbsp_time_ - fr.base_dbsp);
  dbsp_time_ = fr.base_dbsp;
  for (std::size_t c = 0; c < channels(); ++c) {
    TouchStack& ts = touched(c);
    fr.touch_end.push_back(ts.size());
    ts.open();
  }
  fr.best_steps = std::max(fr.best_steps, supersteps_ - fr.base_steps);
  supersteps_ = fr.base_steps;
}

void NoMachine::parallel_end() {
  // Declarations after the last parallel_next() belong to no branch, but
  // still reach the open superstep.
  flush_sends();
  flush_computes();
  ParFrame& fr = frames_[depth_ - 1];
  const std::size_t F = states_.size();
  for (std::size_t i = 0; i < F; ++i) {
    Folding& net = states_[i].net;
    states_[i].comm_total =
        fr.base_comm[i] + combine_branches(fr, i, net.acc, fr.comm.data() + i, F);
    states_[i].comp_total =
        fr.base_comp[i] + combine_branches(fr, i, net.acc, fr.comp.data() + i, F);
  }
  dbsp_time_ =
      fr.base_dbsp + combine_branches(fr, F, dbsp_acc_, fr.dbsp.data(), 1);
  // The enclosing context (if any) has touched everything the branches
  // touched; activity after the last parallel_next() is not a branch.
  const std::size_t C = channels();
  const std::size_t branches = fr.touch_end.size() / C;
  for (std::size_t c = 0; c < C; ++c) {
    touched(c).close(fr.outer_start[c],
                     branches > 0 ? fr.touch_end[(branches - 1) * C + c]
                                  : fr.first_start[c]);
  }
  // Branches on disjoint PEs run their supersteps in lockstep: max.
  supersteps_ = fr.base_steps + fr.best_steps;
  --depth_;
}

std::uint64_t NoMachine::communication(std::size_t idx) const {
  return states_.at(idx).comm_total;
}

std::uint64_t NoMachine::computation(std::size_t idx) const {
  return states_.at(idx).comp_total;
}

void NoMachine::reset() {
  for (auto& st : states_) {
    st.net.reset();
    std::fill(st.ops.begin(), st.ops.end(), 0);
    st.comm_total = 0;
    st.comp_total = 0;
  }
  if (dbsp_.P > 0) dbsp_net_.reset();
  pend_words_ = 0;
  pend_ops_ = 0;
  depth_ = 0;
  dbsp_time_ = 0;
  dbsp_worst_level_ =
      dbsp_.g.empty() ? 0 : static_cast<std::uint32_t>(dbsp_.g.size()) - 1;
  supersteps_ = 0;
  total_words_ = 0;
  step_words_ = 0;
  superstep_dirty_ = false;
}

}  // namespace obliv::no

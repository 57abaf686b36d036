#include "sched/sim_executor.hpp"

#include <algorithm>
#include <string>

#include "util/bits.hpp"

namespace obliv::sched {

SimExecutor::SimExecutor(hm::MachineConfig cfg, SimPolicy policy)
    : cfg_(std::move(cfg)), policy_(policy), cache_(cfg_) {
  ctx_ = Ctx{cfg_.h(), 0, 0};
  cache_load_.resize(cfg_.cache_levels());
  for (std::uint32_t lvl = 1; lvl <= cfg_.cache_levels(); ++lvl) {
    cache_load_[lvl - 1].assign(cfg_.caches_at(lvl), 0);
  }
}

Result<SimExecutor> SimExecutor::make(hm::MachineConfig cfg,
                                      SimPolicy policy) noexcept {
  try {
    return SimExecutor(std::move(cfg), policy);
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    return Status::error(ErrorCode::kResourceExhausted,
                         "allocation failed while building SimExecutor");
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what());
  }
}

void SimExecutor::access_hooked(std::uint64_t addr, std::uint32_t words,
                                bool write) {
  if constexpr (obs::kTracingCompiledIn) {
    // Access-run-length distribution (how effective PR 3's run batching
    // is for this workload); recorded at capture time so serial and
    // sharded replay produce identical registries.
    if (tracer_ != nullptr) hist_access_words_->record(words);
  }
  if (trace_ != nullptr) {
    trace_->push_back(TraceEntry{addr, words,
                                 static_cast<std::uint8_t>(ctx_.core),
                                 static_cast<std::uint8_t>(write)});
  }
  if (psim_buf_ != nullptr) {
    // Sharded engine: buffer the access (with the obs context a live
    // emission would have used) instead of simulating it now.  ts is
    // work_ *before* tick, matching when cache_.access would emit.
    psim_buf_->push_back(hm::PsimAccess{
        addr, words, static_cast<std::uint8_t>(ctx_.core),
        static_cast<std::uint8_t>(write), work_,
        tracer_ != nullptr ? tracer_->current_task() : 0});
    if (psim_buf_->size() >= psim_cap_) psim_->flush();
    tick(words);
    return;
  }
  cache_.access(ctx_.core, addr, words, write);
  tick(words);
}

void SimExecutor::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  cache_.set_tracer(tracer);
  hist_cgc_grain_ = nullptr;
  hist_anchor_space_ = nullptr;
  hist_access_words_ = nullptr;
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer != nullptr) {
      hist_cgc_grain_ = &tracer->counters().histogram("sim.grain.cgc_iters");
      hist_anchor_space_ =
          &tracer->counters().histogram("sim.anchor.space_words");
      hist_access_words_ =
          &tracer->counters().histogram("sim.access.run_words");
      tracer->set_logical_clock(&work_);
      for (std::uint32_t c = 0; c < cfg_.cores(); ++c) {
        tracer->name_lane(c, "core " + std::to_string(c));
      }
      for (std::uint32_t lvl = 1; lvl <= cfg_.cache_levels(); ++lvl) {
        for (std::uint32_t i = 0; i < cfg_.caches_at(lvl); ++i) {
          tracer->name_lane(obs::cache_lane(lvl, i),
                            "L" + std::to_string(lvl) + " cache " +
                                std::to_string(i));
        }
      }
    }
  }
}

std::uint32_t SimExecutor::cores_under_ctx() const {
  if (ctx_.anchor_level > cfg_.cache_levels()) return cfg_.cores();
  return cfg_.cores_under(ctx_.anchor_level);
}

std::uint32_t SimExecutor::first_core_under_ctx() const {
  if (ctx_.anchor_level > cfg_.cache_levels()) return 0;
  return cfg_.first_core_under(ctx_.anchor_idx, ctx_.anchor_level);
}

std::pair<std::uint32_t, std::uint32_t> SimExecutor::caches_under_ctx(
    std::uint32_t t) const {
  if (ctx_.anchor_level > cfg_.cache_levels()) {
    return {cfg_.caches_at(t), 0};
  }
  assert(t <= ctx_.anchor_level);
  const std::uint32_t per =
      cfg_.cores_under(ctx_.anchor_level) / cfg_.cores_under(t);
  return {per, ctx_.anchor_idx * per};
}

std::uint64_t SimExecutor::capacity_of(std::uint32_t level) const {
  if (level > cfg_.cache_levels()) return ~0ull;
  return cfg_.capacity(level);
}

RunMetrics SimExecutor::run(std::uint64_t space_words,
                            util::FnRef<void()> body) {
  cache_.clear();
  work_ = 0;
  span_ = 0;
  rr_counter_ = 0;
  next_task_id_ = 0;
  sb_ends_.clear();  // a failed try_run can leave entries behind
  for (auto& row : cache_load_) std::fill(row.begin(), row.end(), 0);
  // Engine selection is per run: OBLIV_PSIM can flip between runs, and a
  // failed try_run leaves psim_buf_ set -- begin_run below resets it all.
  psim_buf_ = nullptr;
  if (hm::resolve_psim_mode(policy_.psim) == hm::PsimMode::kSharded) {
    if (psim_ == nullptr) {
      psim_ = std::make_unique<hm::ShardedCacheSim>(cache_);
    }
    psim_->begin_run(tracer_, &work_);
    psim_buf_ = &psim_->buffer();
    psim_grain_ = policy_.psim_epoch_grain != 0
                      ? policy_.psim_epoch_grain
                      : hm::ShardedCacheSim::kDefaultEpochGrain;
    psim_cap_ = psim_grain_ * hm::ShardedCacheSim::kHardCapFactor;
  }
  const std::uint32_t lvl = cfg_.smallest_level_fitting(space_words);
  ctx_ = Ctx{lvl, 0, 0};
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ != nullptr) {
      tally_ = SchedTally{};
      tally_.anchors_per_level.assign(cfg_.h(), 0);
      tracer_->set_task(0, lvl, 0);  // the root task is id 0
      emit_sched(obs::EventKind::kTaskBegin, 0, /*tid=*/0, /*a=*/0,
                 /*b=*/lvl, /*c=*/0);
    }
  }
  body();
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ != nullptr) {
      emit_sched(obs::EventKind::kTaskEnd, 0, /*tid=*/0, /*a=*/0,
                 /*b=*/span_, /*c=*/0);
    }
  }
  if (psim_buf_ != nullptr) {
    psim_->flush();
    psim_buf_ = nullptr;
  }
  ctx_ = Ctx{cfg_.h(), 0, 0};
  RunMetrics m = metrics();
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ != nullptr) {
      obs::CounterRegistry& reg = tracer_->counters();
      metrics_to_counters(m, reg);
      reg.set("sched.tasks", next_task_id_);
      reg.set("sched.hint.cgc", tally_.cgc);
      reg.set("sched.hint.sb", tally_.sb);
      reg.set("sched.hint.cgcsb", tally_.cgcsb);
      reg.set("sched.sb.queued", tally_.sb_queued);
      for (std::size_t i = 0; i < tally_.anchors_per_level.size(); ++i) {
        reg.set("sched.anchor.L" + std::to_string(i + 1),
                tally_.anchors_per_level[i]);
      }
      // Epoch stats only when the opt-in epoch lane is on: the default
      // export must stay byte-identical to a serial run.
      if (psim_ != nullptr && psim_->epoch_trace_enabled()) {
        reg.set("psim.epochs", psim_->epochs());
        reg.set("psim.fallback_epochs", psim_->fallback_epochs());
      }
    }
  }
  return m;
}

Result<RunMetrics> SimExecutor::try_run(std::uint64_t space_words,
                                        util::FnRef<void()> body) noexcept {
  try {
    return run(space_words, body);
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    return Status::error(ErrorCode::kResourceExhausted,
                         "allocation failed during simulated run");
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what());
  }
}

RunMetrics SimExecutor::metrics() const {
  RunMetrics m;
  m.work = work_;
  m.span = span_;
  for (std::uint32_t lvl = 1; lvl <= cfg_.cache_levels(); ++lvl) {
    m.level_max_misses.push_back(cache_.level_max_misses(lvl));
    m.level_total_misses.push_back(cache_.level_total_misses(lvl));
  }
  m.pingpong = cache_.pingpong_events();
  return m;
}

std::uint64_t SimExecutor::run_child(std::uint32_t level, std::uint32_t idx,
                                     util::FnRef<void()> fn,
                                     std::uint64_t span_base) {
  const Ctx saved = ctx_;
  const std::uint64_t saved_span = span_;
  span_ = span_base;
  std::uint32_t core = 0;
  if (level <= cfg_.cache_levels()) {
    core = cfg_.first_core_under(idx, level);
  }
  ctx_ = Ctx{level, idx, core};
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ != nullptr) {
      id = ++next_task_id_;
      parent = tracer_->current_task();
      if (level - 1 < tally_.anchors_per_level.size()) {
        ++tally_.anchors_per_level[level - 1];
      }
      tracer_->set_task(id, level, idx);
      emit_sched(obs::EventKind::kTaskBegin, 0, core, id, level, parent);
    }
  }
  fn();
  const std::uint64_t end = span_;
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ != nullptr) {
      emit_sched(obs::EventKind::kTaskEnd, 0, core, id, end - span_base,
                 parent);
      tracer_->set_task(parent, saved.anchor_level, saved.anchor_idx);
    }
  }
  ctx_ = saved;
  span_ = saved_span;
  return end;
}

void SimExecutor::cgc_pfor(
    std::uint64_t lo, std::uint64_t hi, std::uint64_t words_per_iter,
    util::FnRef<void(std::uint64_t, std::uint64_t)> body) {
  if (hi <= lo) return;
  const std::uint64_t t = hi - lo;
  const std::uint32_t P = cores_under_ctx();
  const std::uint32_t first_core = first_core_under_ctx();
  const std::uint64_t wpi = std::max<std::uint64_t>(1, words_per_iter);

  std::uint64_t base_len;
  if (policy_.respect_block_boundaries) {
    // Each segment must scan at least B_1 words even if cores idle, and
    // segment boundaries land on B_1 block boundaries (Section III-A).
    const std::uint64_t iters_per_block =
        std::max<std::uint64_t>(1, util::ceil_div(cfg_.block(1), wpi));
    const std::uint64_t chunks =
        std::max<std::uint64_t>(1,
                                std::min<std::uint64_t>(
                                    P, util::ceil_div(t, iters_per_block)));
    base_len = util::ceil_div(util::ceil_div(t, chunks), iters_per_block) *
               iters_per_block;
  } else {
    const std::uint64_t chunks = std::min<std::uint64_t>(P, t);
    base_len = util::ceil_div(t, chunks);
  }

  trace_hint(Hint::kCgc, t, base_len);
  const std::uint64_t span_base = span_;
  std::uint64_t max_end = span_base;
  std::uint32_t j = 0;
  for (std::uint64_t start = lo; start < hi; start += base_len, ++j) {
    const std::uint64_t end_i = std::min(hi, start + base_len);
    const std::uint32_t core = first_core + (j % P);
    if constexpr (obs::kTracingCompiledIn) {
      if (tracer_ != nullptr) hist_cgc_grain_->record(end_i - start);
    }
    // Each segment is anchored at the L1 cache of its core.
    trace_anchor(obs::AnchorReason::kCgcSegment, (end_i - start) * wpi, 1,
                 core);
    const std::uint64_t end =
        run_child(1, core, [&] { body(start, end_i); }, span_base);
    max_end = std::max(max_end, end);
  }
  span_ = max_end;
  // A CGC construct end is a shared-level sync point: eligible epoch cut.
  maybe_flush_psim();
}

void SimExecutor::sb_parallel(std::initializer_list<SbTask> tasks) {
  if (tasks.size() == 0) return;
  trace_hint(Hint::kSb, tasks.size(), 0);
  const std::uint32_t parent_level = ctx_.anchor_level;
  const std::uint64_t span_base = span_;
  std::uint64_t max_end = span_base;
  // Per-assigned-cache running end time: tasks mapped to the same cache
  // queue behind each other (the Q(lambda) of Section III-B).  This
  // construct's (cache, end) entries are sb_ends_[base, size()); nested
  // constructs push above them and pop back before returning.
  const std::size_t base = sb_ends_.size();

  for (const SbTask& task : tasks) {
    const std::uint64_t space_words = task.space_words;
    std::uint32_t lvl, idx;
    obs::AnchorReason reason;
    if (policy_.slice_mode) {
      // Baseline: ignore space bounds, round-robin tasks over cores.
      const std::uint32_t P = cores_under_ctx();
      lvl = 1;
      idx = first_core_under_ctx() + (rr_counter_++ % P);
      reason = obs::AnchorReason::kSlice;
    } else {
      const std::uint32_t fit = cfg_.smallest_level_fitting(space_words);
      if (parent_level >= 2 && fit <= parent_level - 1 &&
          fit <= cfg_.cache_levels()) {
        // Least-loaded cache at the smallest fitting level under the shadow.
        auto [n_caches, first] = caches_under_ctx(fit);
        std::uint32_t best = first;
        for (std::uint32_t c = first; c < first + n_caches; ++c) {
          if (cache_load_[fit - 1][c] < cache_load_[fit - 1][best]) best = c;
        }
        lvl = fit;
        idx = best;
        reason = obs::AnchorReason::kSbFit;
      } else {
        // Too big for any cache strictly below the anchor: queue at the
        // anchor itself.
        lvl = parent_level;
        idx = ctx_.anchor_idx;
        reason = obs::AnchorReason::kSbQueued;
      }
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(lvl) << 32) | idx;
    std::size_t slot = base;
    while (slot < sb_ends_.size() && sb_ends_[slot].first != key) ++slot;
    const std::uint64_t start =
        slot < sb_ends_.size() ? sb_ends_[slot].second : span_base;
    const std::uint64_t w0 = work_;
    trace_anchor(reason, space_words, lvl, idx);
    const std::uint64_t end = run_child(lvl, idx, task.body, start);
    if (lvl <= cfg_.cache_levels()) {
      cache_load_[lvl - 1][idx] += work_ - w0;
    }
    if (slot < sb_ends_.size()) {
      sb_ends_[slot].second = end;
    } else {
      sb_ends_.emplace_back(key, end);
    }
    max_end = std::max(max_end, end);
  }
  sb_ends_.resize(base);
  span_ = max_end;
  // An SB join is a shared-level sync point: eligible epoch cut.
  maybe_flush_psim();
}

void SimExecutor::sb_seq(std::uint64_t space_words,
                         util::FnRef<void()> body) {
  std::uint32_t lvl, idx;
  obs::AnchorReason reason;
  const std::uint32_t parent_level = ctx_.anchor_level;
  const std::uint32_t fit = cfg_.smallest_level_fitting(space_words);
  trace_hint(Hint::kSb, 1, space_words);
  if (!policy_.slice_mode && parent_level >= 2 && fit <= parent_level - 1 &&
      fit <= cfg_.cache_levels()) {
    auto [count, first] = caches_under_ctx(fit);
    std::uint32_t best = first;
    for (std::uint32_t c = first; c < first + count; ++c) {
      if (cache_load_[fit - 1][c] < cache_load_[fit - 1][best]) best = c;
    }
    lvl = fit;
    idx = best;
    reason = obs::AnchorReason::kSbFit;
  } else {
    lvl = parent_level;
    idx = ctx_.anchor_idx;
    reason = obs::AnchorReason::kSbQueued;
  }
  const std::uint64_t w0 = work_;
  trace_anchor(reason, space_words, lvl, idx);
  const std::uint64_t end = run_child(lvl, idx, body, span_);
  if (lvl <= cfg_.cache_levels()) cache_load_[lvl - 1][idx] += work_ - w0;
  span_ = end;
  maybe_flush_psim();
}

void SimExecutor::cgc_sb_pfor(std::uint64_t count, std::uint64_t space_words,
                              util::FnRef<void(std::uint64_t)> body) {
  if (count == 0) return;
  const std::uint32_t k = ctx_.anchor_level;
  trace_hint(Hint::kCgcSb, count, space_words);

  if (policy_.slice_mode) {
    // Baseline: contiguous distribution over cores, ignoring space bounds.
    const std::uint32_t P = cores_under_ctx();
    const std::uint32_t first_core = first_core_under_ctx();
    const std::uint64_t per = util::ceil_div(count, P);
    const std::uint64_t span_base = span_;
    std::uint64_t max_end = span_base;
    for (std::uint32_t c = 0; c < P; ++c) {
      std::uint64_t local = span_base;
      for (std::uint64_t s = c * per; s < std::min(count, (c + 1) * per);
           ++s) {
        trace_anchor(obs::AnchorReason::kSlice, space_words, 1,
                     first_core + c);
        local = run_child(1, first_core + c, [&] { body(s); }, local);
      }
      max_end = std::max(max_end, local);
    }
    span_ = max_end;
    maybe_flush_psim();
    return;
  }

  // i: smallest level whose caches fit one subtask.
  const std::uint32_t i_fit = cfg_.smallest_level_fitting(space_words);
  // j: smallest level with at most `count` caches under the shadow.
  std::uint32_t j = 1;
  const std::uint32_t j_cap = std::min<std::uint32_t>(k, cfg_.cache_levels());
  while (j < j_cap && caches_under_ctx(j).first > count) ++j;

  // Section III-C: t = max(i, j).  The fit-only ablation drops the j term.
  std::uint32_t t = policy_.cgcsb_fit_only ? i_fit : std::max(i_fit, j);
  std::uint32_t q, first;
  if (t >= k || t > cfg_.cache_levels()) {
    // Subtasks as large as (or larger than) the anchor: they queue at the
    // anchor itself and serialize.
    t = k;
    q = 1;
    first = ctx_.anchor_idx;
  } else {
    std::tie(q, first) = caches_under_ctx(t);
  }

  const std::uint64_t per = util::ceil_div(count, q);
  const std::uint64_t span_base = span_;
  std::uint64_t max_end = span_base;
  for (std::uint32_t c = 0; c < q; ++c) {
    std::uint64_t local = span_base;
    const std::uint64_t s_lo = c * per;
    const std::uint64_t s_hi = std::min<std::uint64_t>(count, (c + 1) * per);
    for (std::uint64_t s = s_lo; s < s_hi; ++s) {
      const std::uint64_t w0 = work_;
      trace_anchor(obs::AnchorReason::kCgcSbSpread, space_words, t, first + c);
      local = run_child(t, first + c, [&] { body(s); }, local);
      if (t <= cfg_.cache_levels()) {
        cache_load_[t - 1][first + c] += work_ - w0;
      }
    }
    max_end = std::max(max_end, local);
  }
  span_ = max_end;
  // A CGC=>SB spread end is a shared-level sync point: eligible epoch cut.
  maybe_flush_psim();
}

}  // namespace obliv::sched

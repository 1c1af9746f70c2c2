// Copyright (c) 2026 moqo authors. MIT license.
//
// The nine-objective cost model (Section 4).
//
// Structure: every objective's plan cost is computed recursively from the
// costs of the two sub-plans plus an operator-local term, using only the
// PONO-preserving building blocks of Section 6.1:
//
//   * sum, max, min of child cost components,
//   * multiplication by values that are CONSTANT GIVEN THE OPERANDS'
//     CARDINALITIES (cardinalities are plan properties, not costs, so
//     scaling child costs by e.g. the number of inner rescans of a
//     block-nested-loop join is "multiplication by a constant" in the sense
//     of the paper's structural-induction proof),
//   * the tuple-loss composition 1 - (1-a)(1-b).
//
// tests/model/pono_test.cc verifies the principle of near-optimality
// (Definition 7) for every objective x operator combination.
//
// The recursive step is split in two along exactly that line:
// ComputeJoinTerms prices the operator from the operands' statistics
// alone, and FoldJoinCost folds the children's cost vectors in. The DP
// driver computes terms once per pair of operand-statistics groups and
// folds once per candidate plan pair; CombineJoinCost/JoinNode are the
// composition, so every formula exists once.
//
// Because the fold only sums, maxes and scales by non-negative constants,
// it is monotone in every child cost, and RejectionCorner runs it
// backwards: given a left plan and a stored plan that rejected one of its
// joins, it solves for the least right-operand cost whose join that plan
// also rejects, and proves the answer by folding at it. The DP driver
// skips pricing every right plan at or above that corner.
//
// The absolute constants (below) are synthetic but Postgres-flavoured;
// DESIGN.md's substitution table explains why only the formula structure,
// not the constants, matters for reproducing the paper.

#ifndef MOQO_MODEL_COST_MODEL_H_
#define MOQO_MODEL_COST_MODEL_H_

#include <cstdint>

#include "cost/cost_vector.h"
#include "cost/objective.h"
#include "model/cardinality.h"
#include "plan/operators.h"
#include "plan/plan_node.h"
#include "query/query.h"

namespace moqo {

/// Version stamp of the cost-model formulas + constants. Bumped whenever a
/// change would make previously computed plan costs stale; persisted
/// snapshots (src/persist/) embed it and refuse to restore across a
/// mismatch, since cached frontiers are only valid under the model that
/// priced them.
inline constexpr uint64_t kCostModelVersion = 1;

/// Cost-model constants, Postgres-flavoured units. Exposed so ablation
/// benches can perturb them.
struct CostModelParams {
  double seq_page_cost = 1.0;       ///< Sequential page read (time units).
  double random_page_cost = 4.0;    ///< Random page read.
  double cpu_tuple_cost = 0.01;     ///< Per-tuple CPU work.
  double cpu_operator_cost = 0.0025;
  double index_probe_cost = 0.3;    ///< B-tree descent per probe.
  double parallel_setup_cost = 10.0;  ///< Per-core coordination overhead.
  double parallel_overhead = 0.05;  ///< Extra CPU fraction per extra core.
  double work_mem_bytes = 4.0 * 1024 * 1024;  ///< Spill threshold.
  double page_bytes = 8192.0;
  /// Energy: Joule per CPU time unit and per IO time unit. IO is weighted
  /// differently from CPU so that energy is correlated with but not
  /// proportional to time (Section 4: "Energy consumption is not always
  /// correlated with time").
  double energy_per_cpu = 0.08;
  double energy_per_io = 0.25;
  /// Extra energy fraction per additional core (coordination makes
  /// parallel plans faster but less energy-efficient).
  double energy_parallel_penalty = 0.12;
};

/// Derived statistics of one operand (plan output) that the operator-local
/// cost terms consume. These are plan *properties*, not costs.
struct OperandStats {
  double rows = 0;     ///< Estimated output cardinality.
  double width = 0;    ///< Average row width, bytes.

  double bytes() const { return rows * width; }
  double pages(double page_bytes) const {
    return std::max(1.0, bytes() / page_bytes);
  }
};

/// The cost model facade used by all optimizers. One instance per
/// (query, objective selection) pair; stateless and cheap to copy.
class CostModel {
 public:
  CostModel(const Query* query, const OperatorRegistry* registry,
            ObjectiveSet objectives,
            CostModelParams params = CostModelParams())
      : query_(query),
        registry_(registry),
        objectives_(std::move(objectives)),
        params_(params),
        estimator_(query) {
    for (int i = 0; i < kNumObjectives; ++i) {
      dimension_[i] = objectives_.IndexOf(static_cast<Objective>(i));
    }
  }

  const ObjectiveSet& objectives() const { return objectives_; }
  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModelParams& params() const { return params_; }

  /// True iff scan config `config_id` may be used on `local_table`
  /// (IndexScan requires an index on some filter or join column).
  bool ScanApplicable(int config_id, int local_table) const;

  /// True iff join config `config_id` may combine `left` and `right`
  /// (IndexNLJoin requires the inner/right operand to be a base-table scan
  /// with an index on the join column of an applicable join predicate).
  bool JoinApplicable(int config_id, const PlanNode& left,
                      const PlanNode& right) const;

  /// Builds a scan node value for `local_table` with scan config
  /// `config_id` (cost, cardinality and width filled in). The DP driver
  /// cost-evaluates candidates on the stack and copies survivors into its
  /// arena, so pruned candidates never allocate.
  PlanNode ScanNode(int config_id, int local_table) const;

  /// Builds the join of `left` and `right` with join config `config_id`.
  /// The child pointers must outlive the returned value's use.
  PlanNode JoinNode(int config_id, const PlanNode* left,
                    const PlanNode* right) const;

  /// The join node of `left` and `right` under config `config_id`, given
  /// its output statistics and cost (JoinNode's last step; the DP driver
  /// calls it for pruning survivors only).
  static PlanNode AssembleJoin(int config_id, const PlanNode* left,
                               const PlanNode* right,
                               const OperandStats& output,
                               const CostVector& cost) {
    PlanNode node;
    node.op_config = config_id;
    node.table = -1;
    node.left = left;
    node.right = right;
    node.tables = left->tables.Union(right->tables);
    node.cardinality = output.rows;
    node.row_width = output.width;
    node.cost = cost;
    return node;
  }

  /// Arena-allocating conveniences for examples and tests.
  PlanNode* MakeScan(int config_id, int local_table, Arena* arena) const {
    return arena->New<PlanNode>(ScanNode(config_id, local_table));
  }
  PlanNode* MakeJoin(int config_id, const PlanNode* left,
                     const PlanNode* right, Arena* arena) const {
    return arena->New<PlanNode>(JoinNode(config_id, left, right));
  }

  /// The operator-local terms of one join: everything its cost adds on
  /// top of the children's costs, plus how the children's costs combine.
  /// A pure function of the operator and the operands' statistics (plan
  /// properties), never of child costs.
  struct JoinTerms {
    /// Which child times the first output tuple waits for.
    enum class Startup : uint8_t {
      kAfterLeftTotal,   ///< left total + right startup (hash build).
      kAfterBothTotals,  ///< max of both totals (both sides sorted).
      kPipelined,        ///< left startup + right startup.
    };
    Startup startup = Startup::kPipelined;
    /// Operands generated concurrently (total time takes the max of the
    /// children, cores their sum); false = the outer drives the inner.
    bool parallel_children = true;
    /// Scale on the inner child's additive costs.
    double inner_rescans = 1;
    double own_time = 0;     ///< Operator work / DOP + parallel setup.
    double startup_own = 0;  ///< Operator work before the first tuple.
    double setup = 0;        ///< Parallel setup time.
    double io_pages = 0;     ///< Pages moved by the operator itself.
    double cpu_load = 0;     ///< Tuple operations incl. parallel overhead.
    double cores = 0;        ///< The operator's own DOP.
    double disk = 0;         ///< Temp-disk footprint, bytes.
    double buffer = 0;       ///< Operator-resident memory, bytes.
    double energy = 0;       ///< Operator energy incl. parallel penalty.
  };

  /// The statistics JoinNode reads off an operand.
  static OperandStats StatsOf(const PlanNode& plan) {
    return {plan.cardinality, plan.row_width};
  }

  /// First half of the recursive step: the terms of joining operands with
  /// these statistics (`output_rows` = JoinOutputStats(...).rows).
  JoinTerms ComputeJoinTerms(const OperatorConfig& op,
                             const OperandStats& left_stats,
                             const OperandStats& right_stats,
                             double output_rows) const;

  /// Second half: folds the children's cost vectors with `terms` via sum,
  /// max and scale-by-constant only. Every expression keeps the operand
  /// order of the one-step formula (e.g. startup is
  /// ((left + right) + startup_own) + setup), so
  /// FoldJoinCost(ComputeJoinTerms(...), l, r) is bit-identical to the
  /// costs priced before the split. That lets the DP driver compute the
  /// terms once per pair of operand-statistics groups and fold per
  /// candidate plan pair — exact, not an approximation.
  CostVector FoldJoinCost(const JoinTerms& terms, const CostVector& left_cost,
                          const CostVector& right_cost) const;

  /// FoldJoinCost turned around for pruning (rejection corners). `rejecter`
  /// is a stored cost row (one double per active objective) and `alpha` a
  /// ParetoSet pruning precision. On true, `corner` holds a right-operand
  /// cost row such that every right cost r >= corner (component-wise)
  /// satisfies, in every dimension d,
  ///   rejecter[d] <= fold[d]          (alpha <= 1), or
  ///   rejecter[d] <= fold[d] * alpha  (alpha > 1),
  /// with fold = FoldJoinCost(t, left_cost, r) for any terms t that agree
  /// with `terms` on inner_rescans, parallel_children and startup and are
  /// at least as large in every other field. That is WouldInsert's
  /// rejection test, so a set storing a plan at or below `rejecter`
  /// rejects every such candidate, and the DP driver need not price it.
  ///
  /// Per objective the corner holds the smallest right component that
  /// lifts the fold to rejecter / alpha (0 where the left share and the
  /// operator's own terms already get there), solved with a small upward
  /// slack. The solve is not trusted: the corner is returned only after
  /// FoldJoinCost evaluated at it passes the test. Sum, max and scaling by
  /// a non-negative constant (the Section 6.1 building blocks) round
  /// monotonically, so the fold at any r >= corner is at least the fold at
  /// the corner, and larger terms only raise it further. Tuple loss is the
  /// exception: a + b - ab does not round monotonically in b, so its corner
  /// component stays 0 and the left share alone must discharge it — for a
  /// and b in [0, 1] (every tuple loss this model produces) the rounded
  /// value is at least max(a - 2^-40, 0), and the rejecter's tuple loss
  /// must pass the test against that floor. Otherwise, and when the proof
  /// fails, there is no corner (false, `corner` untouched).
  bool RejectionCorner(const JoinTerms& terms, const CostVector& left_cost,
                       const double* rejecter, double alpha,
                       double* corner) const;

  /// Core recursive step, exposed for property tests: combines child cost
  /// vectors under fixed operand statistics. Exactly
  /// FoldJoinCost(ComputeJoinTerms(...), left_cost, right_cost); JoinNode
  /// delegates here.
  CostVector CombineJoinCost(const OperatorConfig& op,
                             const OperandStats& left_stats,
                             const CostVector& left_cost,
                             const OperandStats& right_stats,
                             const CostVector& right_cost,
                             double output_rows) const;

  /// Scan cost vector for the given table/config (also used by tests).
  CostVector ScanCost(const OperatorConfig& op, int local_table,
                      double output_rows) const;

  /// Precomputed, plan-independent facts about one split (q1, q2): the
  /// product of applicable join-predicate selectivities and whether an
  /// index-nested-loop join can probe the inner side. Computed once per
  /// split by the DP driver instead of once per candidate plan.
  struct SplitInfo {
    double selectivity = 1.0;      ///< Product over connecting predicates.
    bool has_predicate = false;    ///< False = Cartesian product split.
    bool index_nl_applicable = false;  ///< Inner singleton with usable index.
  };

  /// Analyzes the split (left_set, right_set); right is the inner side.
  SplitInfo AnalyzeSplit(TableSet left_set, TableSet right_set) const;

  /// Output cardinality and row width of joining operands with these
  /// statistics across `split`.
  OperandStats JoinOutputStats(const OperandStats& left,
                               const OperandStats& right,
                               const SplitInfo& split) const;

  /// Fast-path join construction using a precomputed SplitInfo. Both
  /// overloads produce identical nodes; JoinNode recomputes the SplitInfo.
  PlanNode JoinNode(int config_id, const PlanNode* left,
                    const PlanNode* right, const SplitInfo& split) const;

  /// Fast applicability check against a precomputed SplitInfo.
  bool JoinApplicableFast(const OperatorConfig& op,
                          const SplitInfo& split) const {
    return op.type != OperatorType::kIndexNLJoin || split.index_nl_applicable;
  }

 private:
  /// Returns the value of objective `objective` inside `cost`, or 0 if the
  /// objective is not active. Helper for cross-dimension formulas.
  double Get(const CostVector& cost, Objective objective) const {
    const int index = dimension_[static_cast<int>(objective)];
    return index >= 0 ? cost[index] : 0.0;
  }
  /// Sets dimension for `objective` if active.
  void Set(CostVector* cost, Objective objective, double value) const {
    const int index = dimension_[static_cast<int>(objective)];
    if (index >= 0) (*cost)[index] = value;
  }

  const Query* query_;
  const OperatorRegistry* registry_;
  ObjectiveSet objectives_;
  CostModelParams params_;
  CardinalityEstimator estimator_;
  /// dimension_[o] = active index of objective o, or -1.
  int dimension_[kNumObjectives];
};

}  // namespace moqo

#endif  // MOQO_MODEL_COST_MODEL_H_

#include "model/cost_model.h"

#include <algorithm>
#include <cmath>

namespace moqo {

namespace {

double Log2Ceil(double x) { return std::log2(std::max(x, 2.0)); }

}  // namespace

bool CostModel::ScanApplicable(int config_id, int local_table) const {
  const OperatorConfig& op = registry_->config(config_id);
  if (!op.IsScan()) return false;
  // Algorithm 1's pruning only compares plans "generating the same result".
  // A sampled scan generates a different result than a full scan; that
  // difference is visible to the pruning metric only through the tuple-loss
  // objective. When tuple loss is not an active objective, sampling would
  // silently break the principle of optimality (a cost-dominating sub-plan
  // could carry a larger cardinality), so sampled variants are only
  // applicable when tuple loss is optimized.
  if (op.sampling_rate < 1.0 &&
      !objectives_.Contains(Objective::kTupleLoss)) {
    return false;
  }
  if (op.type == OperatorType::kSeqScan) return true;
  // IndexScan: require an index on a column this query touches (filter or
  // join column of the table occurrence).
  const Table& table = query_->table(local_table);
  for (const FilterPredicate* filter : query_->FiltersForTable(local_table)) {
    if (table.HasIndexOn(filter->column)) return true;
  }
  for (const JoinPredicate& join : query_->joins()) {
    if (join.left_table == local_table && table.HasIndexOn(join.left_column)) {
      return true;
    }
    if (join.right_table == local_table &&
        table.HasIndexOn(join.right_column)) {
      return true;
    }
  }
  return false;
}

bool CostModel::JoinApplicable(int config_id, const PlanNode& left,
                               const PlanNode& right) const {
  const OperatorConfig& op = registry_->config(config_id);
  if (!op.IsJoin()) return false;
  if (op.type != OperatorType::kIndexNLJoin) return true;
  // Index-nested-loop: the inner (right) operand must be a base-table scan
  // with an index on the join column of a predicate connecting the sides.
  if (!right.IsScan()) return false;
  const Table& inner = query_->table(right.table);
  for (const JoinPredicate* join :
       query_->JoinsForSplit(left.tables, right.tables)) {
    const bool inner_is_right = right.tables.Contains(join->right_table);
    const std::string& column =
        inner_is_right ? join->right_column : join->left_column;
    if (inner.HasIndexOn(column)) return true;
  }
  return false;
}

CostVector CostModel::ScanCost(const OperatorConfig& op, int local_table,
                               double output_rows) const {
  const Table& table = query_->table(local_table);
  const CostModelParams& p = params_;
  const double s = op.sampling_rate;
  const double pages = table.page_count();
  const double rows = table.row_count();
  const int num_filters =
      static_cast<int>(query_->FiltersForTable(local_table).size());

  double io_time, io_pages, cpu_ops, cpu_time, startup, buffer;
  if (op.type == OperatorType::kSeqScan) {
    io_pages = pages * s;
    io_time = p.seq_page_cost * io_pages;
    cpu_ops = rows * s;
    cpu_time = p.cpu_tuple_cost * cpu_ops +
               p.cpu_operator_cost * cpu_ops * num_filters;
    startup = 0.0;
    buffer = p.page_bytes;  // One page of read buffer.
  } else {
    // IndexScan: fetch only rows surviving the filters; random I/O.
    const double fetched_rows = std::max(1.0, output_rows);
    io_pages = std::min(pages, fetched_rows);
    io_time = p.random_page_cost * io_pages + p.index_probe_cost;
    cpu_ops = fetched_rows;
    cpu_time = (p.cpu_tuple_cost + p.cpu_operator_cost) * fetched_rows;
    startup = p.index_probe_cost;
    buffer = 2 * p.page_bytes;  // Index page + heap page.
  }

  CostVector cost(objectives_.size());
  Set(&cost, Objective::kTotalTime, io_time + cpu_time);
  Set(&cost, Objective::kStartupTime, startup);
  Set(&cost, Objective::kIOLoad, io_pages);
  Set(&cost, Objective::kCPULoad, cpu_ops);
  Set(&cost, Objective::kCores, 1.0);
  Set(&cost, Objective::kDiskFootprint, 0.0);
  Set(&cost, Objective::kBufferFootprint, buffer);
  Set(&cost, Objective::kEnergy,
      p.energy_per_cpu * cpu_time + p.energy_per_io * io_time);
  Set(&cost, Objective::kTupleLoss, 1.0 - s);
  return cost;
}

CostModel::JoinTerms CostModel::ComputeJoinTerms(
    const OperatorConfig& op, const OperandStats& left_stats,
    const OperandStats& right_stats, double output_rows) const {
  const CostModelParams& p = params_;
  const double tL = std::max(left_stats.rows, 1.0);
  const double tR = std::max(right_stats.rows, 1.0);
  const double bytesL = std::max(left_stats.bytes(), 1.0);
  const double bytesR = std::max(right_stats.bytes(), 1.0);
  const double pagesL = left_stats.pages(p.page_bytes);
  const double pagesR = right_stats.pages(p.page_bytes);
  const double d = static_cast<double>(op.dop);

  // All terms depend only on operand cardinalities / widths (plan
  // properties), never on child *costs*; FoldJoinCost folds child costs in
  // exclusively via sum, max and scale-by-constant.
  JoinTerms terms;
  double cpu_time = 0;      // Operator CPU work, time units, single core.
  double io_time = 0;       // Operator I/O work (spills), time units.
  double cpu_ops = 0;       // Tuple operations (CPU-load objective).
  terms.setup = op.dop > 1 ? p.parallel_setup_cost * d : 0.0;

  switch (op.type) {
    case OperatorType::kHashJoin: {
      const double build_cpu_time = 2.0 * p.cpu_tuple_cost * tL;
      const double probe_cpu_time =
          p.cpu_tuple_cost * tR + p.cpu_operator_cost * output_rows;
      cpu_time = build_cpu_time + probe_cpu_time;
      cpu_ops = 2.0 * tL + tR + output_rows;
      const bool spills = bytesL > p.work_mem_bytes;
      if (spills) {
        terms.io_pages = 2.0 * (pagesL + pagesR);  // Partition write + read.
        io_time = p.seq_page_cost * terms.io_pages;
        terms.disk = bytesL + bytesR;
      }
      // Hash table (capped by work_mem when spilling) with overhead.
      terms.buffer =
          1.5 * std::min(bytesL, p.work_mem_bytes) + 2 * p.page_bytes;
      // First output tuple after the whole build side is consumed.
      terms.startup = JoinTerms::Startup::kAfterLeftTotal;
      terms.startup_own = (build_cpu_time + io_time) / d;
      break;
    }
    case OperatorType::kSortMergeJoin: {
      const double sort_cpu_time =
          2.0 * p.cpu_operator_cost * (tL * Log2Ceil(tL) + tR * Log2Ceil(tR));
      const double merge_cpu_time =
          p.cpu_tuple_cost * (tL + tR) + p.cpu_operator_cost * output_rows;
      cpu_time = sort_cpu_time + merge_cpu_time;
      cpu_ops = tL * Log2Ceil(tL) + tR * Log2Ceil(tR) + tL + tR + output_rows;
      const bool spillL = bytesL > p.work_mem_bytes;
      const bool spillR = bytesR > p.work_mem_bytes;
      if (spillL) {
        terms.io_pages += 4.0 * pagesL;  // External merge sort: 2 passes r/w.
        terms.disk += bytesL;
      }
      if (spillR) {
        terms.io_pages += 4.0 * pagesR;
        terms.disk += bytesR;
      }
      io_time = p.seq_page_cost * terms.io_pages;
      terms.buffer = std::min(std::max(bytesL, bytesR), p.work_mem_bytes) +
                     2 * p.page_bytes;
      // Both sides must be fully sorted before the first merge output.
      terms.startup = JoinTerms::Startup::kAfterBothTotals;
      terms.startup_own = (sort_cpu_time + io_time) / d;
      break;
    }
    case OperatorType::kBlockNLJoin: {
      terms.inner_rescans =
          std::max(1.0, std::ceil(bytesL / p.work_mem_bytes));
      terms.parallel_children = false;  // Outer drives inner rescans.
      cpu_time = p.cpu_operator_cost * tL * tR / 50.0 +
                 p.cpu_tuple_cost * output_rows;
      cpu_ops = tL * tR / 50.0 + output_rows;
      terms.buffer = std::min(bytesL, p.work_mem_bytes) + 2 * p.page_bytes;
      // Pipelined: first result as soon as both inputs start producing.
      terms.startup = JoinTerms::Startup::kPipelined;
      terms.startup_own = p.cpu_operator_cost * tR / d;
      break;
    }
    case OperatorType::kIndexNLJoin: {
      // Inner is probed via its index; its full-scan cost is only partially
      // paid (amortized index maintenance / cache effects).
      terms.inner_rescans = 0.1;
      terms.parallel_children = false;
      const double matches_per_probe = std::max(output_rows / tL, 1e-6);
      const double probe_pages = std::max(1.0, matches_per_probe);
      terms.io_pages = tL * probe_pages;
      // Every probe pays a B-tree descent plus random heap-page fetches —
      // cheap for selective outers, uncompetitive for full-table outers
      // (where hash/sort-merge win on total time, as in Figure 3(a)).
      io_time = tL * (p.index_probe_cost + p.random_page_cost * probe_pages);
      cpu_time = 3.0 * p.cpu_operator_cost * tL +
                 p.cpu_tuple_cost * output_rows;
      cpu_ops = 3.0 * tL + output_rows;
      terms.buffer = 4 * p.page_bytes;  // Fully pipelined, no hash/sort state.
      terms.startup = JoinTerms::Startup::kPipelined;
      terms.startup_own = p.index_probe_cost;
      break;
    }
    default:
      // Scans never reach ComputeJoinTerms.
      break;
  }

  terms.own_time = (cpu_time + io_time) / d + terms.setup;
  terms.cpu_load = cpu_ops * (1.0 + p.parallel_overhead * (d - 1.0));
  terms.cores = d;
  terms.energy = (p.energy_per_cpu * cpu_time + p.energy_per_io * io_time) *
                 (1.0 + p.energy_parallel_penalty * (d - 1.0));
  return terms;
}

CostVector CostModel::FoldJoinCost(const JoinTerms& terms,
                                   const CostVector& left_cost,
                                   const CostVector& right_cost) const {
  const double inner = terms.inner_rescans;
  const double left_total = Get(left_cost, Objective::kTotalTime);
  const double right_total = Get(right_cost, Objective::kTotalTime);
  CostVector cost(objectives_.size());

  // Total time: parallel operand generation takes the max; nested-loop
  // styles consume the outer first, then rescan the inner.
  Set(&cost, Objective::kTotalTime,
      (terms.parallel_children ? std::max(left_total, right_total)
                               : left_total + inner * right_total) +
          terms.own_time);

  {
    const double right_startup = Get(right_cost, Objective::kStartupTime);
    double children = 0;
    switch (terms.startup) {
      case JoinTerms::Startup::kAfterLeftTotal:
        children = left_total + right_startup;
        break;
      case JoinTerms::Startup::kAfterBothTotals:
        children = std::max(left_total, right_total);
        break;
      case JoinTerms::Startup::kPipelined:
        children = Get(left_cost, Objective::kStartupTime) + right_startup;
        break;
    }
    Set(&cost, Objective::kStartupTime,
        children + terms.startup_own + terms.setup);
  }

  Set(&cost, Objective::kIOLoad,
      Get(left_cost, Objective::kIOLoad) +
          inner * Get(right_cost, Objective::kIOLoad) + terms.io_pages);

  Set(&cost, Objective::kCPULoad,
      Get(left_cost, Objective::kCPULoad) +
          inner * Get(right_cost, Objective::kCPULoad) + terms.cpu_load);

  {
    const double left_cores = Get(left_cost, Objective::kCores);
    const double right_cores = Get(right_cost, Objective::kCores);
    const double children = terms.parallel_children
                                ? left_cores + right_cores
                                : std::max(left_cores, right_cores);
    Set(&cost, Objective::kCores, std::max(children, terms.cores));
  }

  Set(&cost, Objective::kDiskFootprint,
      std::max({Get(left_cost, Objective::kDiskFootprint),
                Get(right_cost, Objective::kDiskFootprint), terms.disk}));

  Set(&cost, Objective::kBufferFootprint,
      std::max(Get(left_cost, Objective::kBufferFootprint),
               Get(right_cost, Objective::kBufferFootprint)) +
          terms.buffer);

  Set(&cost, Objective::kEnergy,
      Get(left_cost, Objective::kEnergy) +
          inner * Get(right_cost, Objective::kEnergy) + terms.energy);

  {
    const double a = Get(left_cost, Objective::kTupleLoss);
    const double b = Get(right_cost, Objective::kTupleLoss);
    Set(&cost, Objective::kTupleLoss,
        std::clamp(a + b - a * b, 0.0, 1.0));  // 1-(1-a)(1-b)
  }
  return cost;
}

bool CostModel::RejectionCorner(const JoinTerms& terms,
                                const CostVector& left_cost,
                                const double* rejecter, double alpha,
                                double* corner) const {
  // WouldInsert compares stored rows against the candidate's cost itself
  // when alpha <= 1 and against cost * alpha otherwise; mirror it exactly.
  const auto threshold = [alpha](double cost) {
    return alpha <= 1.0 ? cost : cost * alpha;
  };
  // The fold value objective o must reach, padded upwards so that rounding
  // in the solve rarely fails the proof below (a failed proof only loses
  // the corner).
  constexpr double kSlack = 1.0 + 0x1p-40;
  const double scale = alpha <= 1.0 ? kSlack : kSlack / alpha;
  const auto active = [this](Objective o) {
    return dimension_[static_cast<int>(o)] >= 0;
  };
  const auto target = [&](Objective o) {
    return rejecter[dimension_[static_cast<int>(o)]] * scale;
  };
  CostVector right(objectives_.size());
  // Raises the right operand's component of objective `o` to `value`.
  const auto need = [this, &right](Objective o, double value) {
    const int index = dimension_[static_cast<int>(o)];
    if (index >= 0 && value > right[index]) right[index] = value;
  };
  const double inner = terms.inner_rescans;
  const double left_total = Get(left_cost, Objective::kTotalTime);

  // One solve per FoldJoinCost formula, in the same order.
  if (active(Objective::kTotalTime)) {
    const double t = target(Objective::kTotalTime) - terms.own_time;
    if (!terms.parallel_children) {
      need(Objective::kTotalTime, (t - left_total) / inner);
    } else if (left_total < t) {
      need(Objective::kTotalTime, t);
    }
  }
  if (active(Objective::kStartupTime)) {
    const double t =
        target(Objective::kStartupTime) - terms.startup_own - terms.setup;
    switch (terms.startup) {
      case JoinTerms::Startup::kAfterLeftTotal:
        need(Objective::kStartupTime, t - left_total);
        break;
      case JoinTerms::Startup::kAfterBothTotals:
        if (left_total < t) need(Objective::kTotalTime, t);
        break;
      case JoinTerms::Startup::kPipelined:
        need(Objective::kStartupTime,
             t - Get(left_cost, Objective::kStartupTime));
        break;
    }
  }
  if (active(Objective::kIOLoad)) {
    need(Objective::kIOLoad, (target(Objective::kIOLoad) - terms.io_pages -
                              Get(left_cost, Objective::kIOLoad)) /
                                 inner);
  }
  if (active(Objective::kCPULoad)) {
    need(Objective::kCPULoad, (target(Objective::kCPULoad) - terms.cpu_load -
                               Get(left_cost, Objective::kCPULoad)) /
                                  inner);
  }
  if (active(Objective::kCores)) {
    const double t = target(Objective::kCores);
    const double left_cores = Get(left_cost, Objective::kCores);
    if (terms.cores < t) {
      if (terms.parallel_children) {
        need(Objective::kCores, t - left_cores);
      } else if (left_cores < t) {
        need(Objective::kCores, t);
      }
    }
  }
  if (active(Objective::kDiskFootprint)) {
    const double t = target(Objective::kDiskFootprint);
    if (std::max(Get(left_cost, Objective::kDiskFootprint), terms.disk) < t) {
      need(Objective::kDiskFootprint, t);
    }
  }
  if (active(Objective::kBufferFootprint)) {
    const double t = target(Objective::kBufferFootprint) - terms.buffer;
    if (Get(left_cost, Objective::kBufferFootprint) < t) {
      need(Objective::kBufferFootprint, t);
    }
  }
  if (active(Objective::kEnergy)) {
    need(Objective::kEnergy, (target(Objective::kEnergy) - terms.energy -
                              Get(left_cost, Objective::kEnergy)) /
                                 inner);
  }

  // The proof: the real fold at the corner passes WouldInsert's test.
  const CostVector folded = FoldJoinCost(terms, left_cost, right);
  const int loss = dimension_[static_cast<int>(Objective::kTupleLoss)];
  for (int d = 0; d < objectives_.size(); ++d) {
    if (d != loss && !(rejecter[d] <= threshold(folded[d]))) return false;
  }
  if (loss >= 0) {
    // The left share alone, less the rounding margin of a + b - ab.
    const double a = left_cost[loss];
    if (!(a >= 0.0 && a <= 1.0)) return false;
    if (!(rejecter[loss] <= threshold(std::max(a - 0x1p-40, 0.0)))) {
      return false;
    }
  }
  for (int d = 0; d < objectives_.size(); ++d) corner[d] = right[d];
  return true;
}

CostVector CostModel::CombineJoinCost(const OperatorConfig& op,
                                      const OperandStats& left_stats,
                                      const CostVector& left_cost,
                                      const OperandStats& right_stats,
                                      const CostVector& right_cost,
                                      double output_rows) const {
  return FoldJoinCost(
      ComputeJoinTerms(op, left_stats, right_stats, output_rows), left_cost,
      right_cost);
}

PlanNode CostModel::ScanNode(int config_id, int local_table) const {
  const OperatorConfig& op = registry_->config(config_id);
  PlanNode node;
  node.op_config = config_id;
  node.table = local_table;
  node.tables = TableSet::Singleton(local_table);
  node.cardinality = estimator_.ScanOutputRows(local_table, op.sampling_rate);
  node.row_width = query_->table(local_table).row_width_bytes();
  node.cost = ScanCost(op, local_table, node.cardinality);
  return node;
}

CostModel::SplitInfo CostModel::AnalyzeSplit(TableSet left_set,
                                             TableSet right_set) const {
  SplitInfo info;
  std::vector<double> selectivities;
  for (const JoinPredicate& join : query_->joins()) {
    if (!join.Connects(left_set, right_set)) continue;
    info.has_predicate = true;
    selectivities.push_back(estimator_.JoinPredicateSelectivity(join));
    // Index-nested-loop: inner must be a single base table with an index on
    // its side of a connecting predicate.
    if (right_set.Cardinality() == 1) {
      const bool inner_is_right = right_set.Contains(join.right_table);
      const int inner_table = inner_is_right ? join.right_table
                                             : join.left_table;
      const std::string& column =
          inner_is_right ? join.right_column : join.left_column;
      if (query_->table(inner_table).HasIndexOn(column)) {
        info.index_nl_applicable = true;
      }
    }
  }
  // Canonical fold: join insertion order must not leak into cost bytes
  // (see OrderedSelectivityProduct).
  info.selectivity =
      OrderedSelectivityProduct(info.selectivity, std::move(selectivities));
  return info;
}

OperandStats CostModel::JoinOutputStats(const OperandStats& left,
                                        const OperandStats& right,
                                        const SplitInfo& split) const {
  return {std::max(left.rows * right.rows * split.selectivity, 1e-3),
          estimator_.JoinOutputWidth(left.width, right.width)};
}

PlanNode CostModel::JoinNode(int config_id, const PlanNode* left,
                             const PlanNode* right,
                             const SplitInfo& split) const {
  const OperandStats left_stats = StatsOf(*left);
  const OperandStats right_stats = StatsOf(*right);
  const OperandStats output = JoinOutputStats(left_stats, right_stats, split);
  return AssembleJoin(config_id, left, right, output,
                      CombineJoinCost(registry_->config(config_id),
                                      left_stats, left->cost, right_stats,
                                      right->cost, output.rows));
}

PlanNode CostModel::JoinNode(int config_id, const PlanNode* left,
                             const PlanNode* right) const {
  return JoinNode(config_id, left, right,
                  AnalyzeSplit(left->tables, right->tables));
}

}  // namespace moqo

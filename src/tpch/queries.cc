#include "tpch/queries.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "exec/table.h"

namespace mgjoin::tpch {

namespace {

using exec::DateToDays;
using exec::DistTable;
using exec::Engine;
using exec::GatherPairs;
using exec::Table;

// The paper's query implementations route whole relations through
// MG-Join and evaluate predicates as residuals (Sec 5.4: "GPU versions
// of 6 TPC-H queries that make use of MG-Join"); selections are applied
// during the final aggregation pass. Projections still prune columns
// before the shuffle. Each residual gathers its predicate columns for
// every matched pair, keeps the qualifying pairs, and gathers the value
// and group columns for those only.

using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

double VirtualScale(const Engine& eng) {
  return eng.options().join.virtual_scale;
}

// Accumulates base-table scan + locality accounting for the OmniSci
// comparison (ops at virtual scale).
void CountScan(const DistTable& t, double vs, OpCounts* ops) {
  ops->rows_scanned += static_cast<double>(t.rows()) * vs;
  ops->local_bytes +=
      static_cast<double>(t.TotalBytes()) * vs / t.num_shards();
}

// A table that a shared-nothing executor must replicate per GPU (join
// build sides whose keys do not match the sharding).
void CountReplicated(const DistTable& t, double vs, OpCounts* ops) {
  ops->replicated_bytes += static_cast<double>(t.TotalBytes()) * vs;
  ops->replicated_rows += static_cast<double>(t.rows()) * vs;
}

void CountJoin(const Engine::Joined& j, OpCounts* ops) {
  ops->rows_joined +=
      static_cast<double>(j.stats.virtual_input_tuples);
  ops->join_output_rows += static_cast<double>(j.stats.matches) *
                           j.stats.virtual_input_tuples /
                           std::max<double>(1.0, j.stats.input_tuples);
}

void ChargeAggregation(Engine& eng, std::size_t pair_count,
                       std::uint64_t row_bytes) {
  // Residual predicates + hash aggregation fetch payloads by row id.
  eng.ChargeGather(std::vector<std::uint64_t>(
      eng.num_gpus(),
      static_cast<std::uint64_t>(pair_count) * row_bytes /
          static_cast<std::uint64_t>(eng.num_gpus())));
}

// The pairs whose residual row `i` passes `keep(i)`, in pair order, so
// sums over them add the same terms in the same order as a pass over
// all pairs that skips the others.
template <typename Keep>
Pairs SelectPairs(const Pairs& pairs, Keep keep) {
  Pairs kept;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (keep(i)) kept.push_back(pairs[i]);
  }
  return kept;
}

// Sum of the `k` largest group values, added largest first.
double TopKSum(const std::unordered_map<std::int64_t, double>& groups,
               std::size_t k) {
  std::vector<double> values;
  values.reserve(groups.size());
  for (const auto& [key, v] : groups) values.push_back(v);
  std::sort(values.rbegin(), values.rend());
  double sum = 0;
  for (std::size_t i = 0; i < values.size() && i < k; ++i) sum += values[i];
  return sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// Q3: shipping priority. customer x orders x lineitem, top-10 revenue.
Result<QueryOutput> RunQ3(Engine& eng, const TpchData& db) {
  QueryOutput out;
  out.name = "Q3";
  const double vs = VirtualScale(eng);
  const std::int32_t cutoff = DateToDays(1995, 3, 15);

  CountScan(db.customer, vs, &out.ops);
  CountReplicated(db.customer, vs, &out.ops);
  DistTable c = eng.Project(db.customer, {"c_custkey", "c_mktsegment"});

  CountScan(db.orders, vs, &out.ops);
  CountReplicated(db.orders, vs, &out.ops);
  DistTable o = eng.Project(db.orders,
                            {"o_orderkey", "o_custkey", "o_orderdate",
                             "o_shippriority"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j1,
                       eng.HashJoin(c, "c_custkey", o, "o_custkey"));
  CountJoin(j1, &out.ops);
  DistTable co = eng.MaterializeJoin(
      c, o, j1.pairs, {"c_mktsegment"},
      {"o_orderkey", "o_orderdate", "o_shippriority"});

  CountScan(db.lineitem, vs, &out.ops);
  DistTable l = eng.Project(db.lineitem,
                            {"l_orderkey", "l_extendedprice", "l_discount",
                             "l_shipdate"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j2,
                       eng.HashJoin(co, "o_orderkey", l, "l_orderkey"));
  CountJoin(j2, &out.ops);

  // Residual predicates + group by (orderkey, orderdate, shippriority).
  const Table f = GatherPairs(co, l, j2.pairs,
                              {"c_mktsegment", "o_orderdate"}, {"l_shipdate"});
  const auto& segment = f.col("c_mktsegment").ints;
  const auto& orderdate = f.col("o_orderdate").ints;
  const auto& shipdate = f.col("l_shipdate").ints;
  const Pairs hits = SelectPairs(j2.pairs, [&](std::size_t i) {
    return segment[i] == codes::kSegBuilding && orderdate[i] < cutoff &&
           shipdate[i] > cutoff;
  });
  const Table m = GatherPairs(co, l, hits, {"o_orderkey"},
                              {"l_extendedprice", "l_discount"});
  const auto& orderkey = m.col("o_orderkey").ints;
  const auto& price = m.col("l_extendedprice").doubles;
  const auto& discount = m.col("l_discount").doubles;
  std::unordered_map<std::int64_t, double> revenue;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    revenue[orderkey[i]] += price[i] * (1.0 - discount[i]);
  }
  ChargeAggregation(eng, j2.pairs.size(), 32);

  out.result_rows = std::min<std::uint64_t>(10, revenue.size());
  out.value = TopKSum(revenue, 10);
  out.ops.rows_out = static_cast<double>(revenue.size()) * vs;
  out.time = eng.elapsed();
  return out;
}

// ---------------------------------------------------------------------------
// Q5: local supplier volume. c x o x l x s x n x r in ASIA, 1994.
Result<QueryOutput> RunQ5(Engine& eng, const TpchData& db) {
  QueryOutput out;
  out.name = "Q5";
  const double vs = VirtualScale(eng);
  const std::int32_t lo = DateToDays(1994, 1, 1);
  const std::int32_t hi = DateToDays(1995, 1, 1);

  // Nation/region are tiny: resolve the ASIA nation set functionally and
  // charge a negligible scan.
  std::vector<bool> in_asia(25, false);
  {
    const Table& n = db.nation.shards[0];
    const auto& regionkey = n.col("n_regionkey").ints;
    const auto& nationkey = n.col("n_nationkey").ints;
    for (std::size_t i = 0; i < n.rows(); ++i) {
      if (regionkey[i] == codes::kRegionAsia) {
        in_asia[static_cast<std::size_t>(nationkey[i])] = true;
      }
    }
    eng.ChargeScan(std::vector<std::uint64_t>(eng.num_gpus(), 512));
  }

  CountScan(db.customer, vs, &out.ops);
  CountReplicated(db.customer, vs, &out.ops);
  DistTable c = eng.Project(db.customer, {"c_custkey", "c_nationkey"});

  CountScan(db.orders, vs, &out.ops);
  CountReplicated(db.orders, vs, &out.ops);
  DistTable o = eng.Project(db.orders,
                            {"o_orderkey", "o_custkey", "o_orderdate"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j1,
                       eng.HashJoin(c, "c_custkey", o, "o_custkey"));
  CountJoin(j1, &out.ops);
  DistTable co = eng.MaterializeJoin(c, o, j1.pairs, {"c_nationkey"},
                                     {"o_orderkey", "o_orderdate"});

  CountScan(db.lineitem, vs, &out.ops);
  DistTable l = eng.Project(db.lineitem,
                            {"l_orderkey", "l_suppkey", "l_extendedprice",
                             "l_discount"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j2,
                       eng.HashJoin(co, "o_orderkey", l, "l_orderkey"));
  CountJoin(j2, &out.ops);
  DistTable col = eng.MaterializeJoin(
      co, l, j2.pairs, {"c_nationkey", "o_orderdate"},
      {"l_suppkey", "l_extendedprice", "l_discount"});

  CountScan(db.supplier, vs, &out.ops);
  CountReplicated(db.supplier, vs, &out.ops);
  DistTable s = eng.Project(db.supplier, {"s_suppkey", "s_nationkey"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j3,
                       eng.HashJoin(col, "l_suppkey", s, "s_suppkey"));
  CountJoin(j3, &out.ops);

  // Residual predicates; group by nation.
  const Table f = GatherPairs(col, s, j3.pairs,
                              {"c_nationkey", "o_orderdate"}, {"s_nationkey"});
  const auto& cust_nation = f.col("c_nationkey").ints;
  const auto& orderdate = f.col("o_orderdate").ints;
  const auto& supp_nation = f.col("s_nationkey").ints;
  const Pairs hits = SelectPairs(j3.pairs, [&](std::size_t i) {
    const std::int64_t sn = supp_nation[i];
    return cust_nation[i] == sn && in_asia[static_cast<std::size_t>(sn)] &&
           orderdate[i] >= lo && orderdate[i] < hi;
  });
  const Table m = GatherPairs(col, s, hits, {"l_extendedprice", "l_discount"},
                              {"s_nationkey"});
  const auto& price = m.col("l_extendedprice").doubles;
  const auto& discount = m.col("l_discount").doubles;
  const auto& nation = m.col("s_nationkey").ints;
  std::map<std::int64_t, double> by_nation;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    by_nation[nation[i]] += price[i] * (1.0 - discount[i]);
  }
  ChargeAggregation(eng, j3.pairs.size(), 36);

  double total = 0;
  for (const auto& [n, v] : by_nation) total += v;
  out.result_rows = by_nation.size();
  out.value = total;
  out.ops.rows_out = static_cast<double>(by_nation.size());
  out.time = eng.elapsed();
  return out;
}

// ---------------------------------------------------------------------------
// Q10: returned items. c x o x l (+nation), Q4-1993, top 20.
Result<QueryOutput> RunQ10(Engine& eng, const TpchData& db) {
  QueryOutput out;
  out.name = "Q10";
  const double vs = VirtualScale(eng);
  const std::int32_t lo = DateToDays(1993, 10, 1);
  const std::int32_t hi = DateToDays(1994, 1, 1);

  CountScan(db.orders, vs, &out.ops);
  CountReplicated(db.orders, vs, &out.ops);
  DistTable o = eng.Project(db.orders,
                            {"o_orderkey", "o_custkey", "o_orderdate"});

  CountScan(db.lineitem, vs, &out.ops);
  DistTable l = eng.Project(db.lineitem,
                            {"l_orderkey", "l_extendedprice", "l_discount",
                             "l_returnflag"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j1,
                       eng.HashJoin(o, "o_orderkey", l, "l_orderkey"));
  CountJoin(j1, &out.ops);
  DistTable ol = eng.MaterializeJoin(
      o, l, j1.pairs, {"o_custkey", "o_orderdate"},
      {"l_extendedprice", "l_discount", "l_returnflag"});

  CountScan(db.customer, vs, &out.ops);
  CountReplicated(db.customer, vs, &out.ops);
  DistTable c = eng.Project(db.customer, {"c_custkey", "c_nationkey"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j2,
                       eng.HashJoin(c, "c_custkey", ol, "o_custkey"));
  CountJoin(j2, &out.ops);

  const Table f = GatherPairs(c, ol, j2.pairs, {},
                              {"l_returnflag", "o_orderdate"});
  const auto& returnflag = f.col("l_returnflag").ints;
  const auto& orderdate = f.col("o_orderdate").ints;
  const Pairs hits = SelectPairs(j2.pairs, [&](std::size_t i) {
    return returnflag[i] == codes::kFlagR && orderdate[i] >= lo &&
           orderdate[i] < hi;
  });
  const Table m = GatherPairs(c, ol, hits, {"c_custkey"},
                              {"l_extendedprice", "l_discount"});
  const auto& custkey = m.col("c_custkey").ints;
  const auto& price = m.col("l_extendedprice").doubles;
  const auto& discount = m.col("l_discount").doubles;
  std::unordered_map<std::int64_t, double> by_customer;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    by_customer[custkey[i]] += price[i] * (1.0 - discount[i]);
  }
  ChargeAggregation(eng, j2.pairs.size(), 32);

  out.result_rows = std::min<std::uint64_t>(20, by_customer.size());
  out.value = TopKSum(by_customer, 20);
  out.ops.rows_out = static_cast<double>(by_customer.size()) * vs;
  out.time = eng.elapsed();
  return out;
}

// ---------------------------------------------------------------------------
// Q12: shipping modes and order priority. o x l, MAIL/SHIP, 1994.
Result<QueryOutput> RunQ12(Engine& eng, const TpchData& db) {
  QueryOutput out;
  out.name = "Q12";
  const double vs = VirtualScale(eng);
  const std::int32_t lo = DateToDays(1994, 1, 1);
  const std::int32_t hi = DateToDays(1995, 1, 1);

  CountScan(db.lineitem, vs, &out.ops);
  DistTable l = eng.Project(db.lineitem,
                            {"l_orderkey", "l_shipmode", "l_commitdate",
                             "l_receiptdate", "l_shipdate"});

  CountScan(db.orders, vs, &out.ops);
  CountReplicated(db.orders, vs, &out.ops);
  DistTable o = eng.Project(db.orders, {"o_orderkey", "o_orderpriority"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j1,
                       eng.HashJoin(o, "o_orderkey", l, "l_orderkey"));
  CountJoin(j1, &out.ops);

  const Table f = GatherPairs(
      o, l, j1.pairs, {},
      {"l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate"});
  const auto& shipmode = f.col("l_shipmode").ints;
  const auto& commitdate = f.col("l_commitdate").ints;
  const auto& receiptdate = f.col("l_receiptdate").ints;
  const auto& shipdate = f.col("l_shipdate").ints;
  const Pairs hits = SelectPairs(j1.pairs, [&](std::size_t i) {
    const std::int64_t mode = shipmode[i];
    const std::int64_t commit = commitdate[i];
    const std::int64_t receipt = receiptdate[i];
    return (mode == codes::kModeMail || mode == codes::kModeShip) &&
           commit < receipt && shipdate[i] < commit && receipt >= lo &&
           receipt < hi;
  });
  const Table m =
      GatherPairs(o, l, hits, {"o_orderpriority"}, {"l_shipmode"});
  const auto& priority = m.col("o_orderpriority").ints;
  const auto& mode = m.col("l_shipmode").ints;
  // mode -> (high count, low count).
  std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> counts;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (priority[i] <= 1) {  // 1-URGENT, 2-HIGH
      ++counts[mode[i]].first;
    } else {
      ++counts[mode[i]].second;
    }
  }
  ChargeAggregation(eng, j1.pairs.size(), 24);

  double total = 0;
  for (const auto& [m, hl] : counts) {
    total += static_cast<double>(hl.first + hl.second);
  }
  out.result_rows = counts.size();
  out.value = total;
  out.ops.rows_out = static_cast<double>(counts.size());
  out.time = eng.elapsed();
  return out;
}

// ---------------------------------------------------------------------------
// Q14: promotion effect. l x p, one month.
Result<QueryOutput> RunQ14(Engine& eng, const TpchData& db) {
  QueryOutput out;
  out.name = "Q14";
  const double vs = VirtualScale(eng);
  const std::int32_t lo = DateToDays(1995, 9, 1);
  const std::int32_t hi = DateToDays(1995, 10, 1);

  CountScan(db.lineitem, vs, &out.ops);
  DistTable l = eng.Project(db.lineitem,
                            {"l_partkey", "l_extendedprice", "l_discount",
                             "l_shipdate"});

  CountScan(db.part, vs, &out.ops);
  CountReplicated(db.part, vs, &out.ops);
  DistTable p = eng.Project(db.part, {"p_partkey", "p_type"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j1,
                       eng.HashJoin(p, "p_partkey", l, "l_partkey"));
  CountJoin(j1, &out.ops);

  const Table f = GatherPairs(p, l, j1.pairs, {}, {"l_shipdate"});
  const auto& shipdate = f.col("l_shipdate").ints;
  const Pairs hits = SelectPairs(j1.pairs, [&](std::size_t i) {
    return shipdate[i] >= lo && shipdate[i] < hi;
  });
  const Table m = GatherPairs(p, l, hits, {"p_type"},
                              {"l_extendedprice", "l_discount"});
  const auto& type = m.col("p_type").ints;
  const auto& price = m.col("l_extendedprice").doubles;
  const auto& discount = m.col("l_discount").doubles;
  double promo = 0, total = 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const double rev = price[i] * (1.0 - discount[i]);
    total += rev;
    if (type[i] < codes::kNumPromoTypes) promo += rev;
  }
  ChargeAggregation(eng, j1.pairs.size(), 24);

  out.result_rows = 1;
  out.value = total > 0 ? 100.0 * promo / total : 0.0;
  out.ops.rows_out = 1;
  out.time = eng.elapsed();
  return out;
}

// ---------------------------------------------------------------------------
// Q19: discounted revenue. l x p with OR'd brand/container/qty triples.
Result<QueryOutput> RunQ19(Engine& eng, const TpchData& db) {
  QueryOutput out;
  out.name = "Q19";
  const double vs = VirtualScale(eng);

  CountScan(db.lineitem, vs, &out.ops);
  DistTable l = eng.Project(db.lineitem,
                            {"l_partkey", "l_quantity", "l_extendedprice",
                             "l_discount", "l_shipmode", "l_shipinstruct"});

  CountScan(db.part, vs, &out.ops);
  CountReplicated(db.part, vs, &out.ops);
  DistTable p = eng.Project(db.part,
                            {"p_partkey", "p_brand", "p_size", "p_container"});

  MGJ_ASSIGN_OR_RETURN(Engine::Joined j1,
                       eng.HashJoin(p, "p_partkey", l, "l_partkey"));
  CountJoin(j1, &out.ops);

  auto in_sm = [](std::int64_t c) {
    return c == codes::kContSmCase || c == codes::kContSmBox ||
           c == codes::kContSmPack || c == codes::kContSmPkg;
  };
  auto in_med = [](std::int64_t c) {
    return c == codes::kContMedBag || c == codes::kContMedBox ||
           c == codes::kContMedPkg || c == codes::kContMedPack;
  };
  auto in_lg = [](std::int64_t c) {
    return c == codes::kContLgCase || c == codes::kContLgBox ||
           c == codes::kContLgPack || c == codes::kContLgPkg;
  };

  const Table f = GatherPairs(
      p, l, j1.pairs, {"p_brand", "p_size", "p_container"},
      {"l_shipmode", "l_shipinstruct", "l_quantity"});
  const auto& brands = f.col("p_brand").ints;
  const auto& sizes = f.col("p_size").ints;
  const auto& containers = f.col("p_container").ints;
  const auto& shipmode = f.col("l_shipmode").ints;
  const auto& shipinstruct = f.col("l_shipinstruct").ints;
  const auto& quantity = f.col("l_quantity").doubles;
  const Pairs hits = SelectPairs(j1.pairs, [&](std::size_t i) {
    const std::int64_t mode = shipmode[i];
    if (mode != codes::kModeAir && mode != codes::kModeAirReg) return false;
    if (shipinstruct[i] != codes::kInstrDeliverInPerson) return false;
    const std::int64_t brand = brands[i];
    const std::int64_t size = sizes[i];
    const std::int64_t cont = containers[i];
    const double qty = quantity[i];
    const bool c1 = brand == codes::BrandCode(1, 2) && in_sm(cont) &&
                    qty >= 1 && qty <= 11 && size >= 1 && size <= 5;
    const bool c2 = brand == codes::BrandCode(2, 3) && in_med(cont) &&
                    qty >= 10 && qty <= 20 && size >= 1 && size <= 10;
    const bool c3 = brand == codes::BrandCode(3, 4) && in_lg(cont) &&
                    qty >= 20 && qty <= 30 && size >= 1 && size <= 15;
    return c1 || c2 || c3;
  });
  const Table m =
      GatherPairs(p, l, hits, {}, {"l_extendedprice", "l_discount"});
  const auto& price = m.col("l_extendedprice").doubles;
  const auto& discount = m.col("l_discount").doubles;
  double revenue = 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    revenue += price[i] * (1.0 - discount[i]);
  }
  ChargeAggregation(eng, j1.pairs.size(), 32);

  out.result_rows = 1;
  out.value = revenue;
  out.ops.rows_out = static_cast<double>(hits.size()) * vs;
  out.time = eng.elapsed();
  return out;
}

std::vector<std::pair<std::string, QueryFn>> AllQueries() {
  return {{"Q3", &RunQ3},   {"Q5", &RunQ5},   {"Q10", &RunQ10},
          {"Q12", &RunQ12}, {"Q14", &RunQ14}, {"Q19", &RunQ19}};
}

}  // namespace mgjoin::tpch

// Copyright (c) 2026 moqo authors. MIT license.

#include "service/signature.h"

#include <vector>

#include <gtest/gtest.h>

#include "query/canonical.h"
#include "query/tpch_queries.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

using testing::ExpectGoldenKey;
using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOptions;

ObjectiveSet FirstObjectives(int num_objectives) {
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.begin() + num_objectives);
  return ObjectiveSet(objectives);
}

TEST(SignatureTest, EqualSpecsEqualSignatures) {
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  const ProblemSignature a = ComputeSignature(
      query, FirstObjectives(3), AlgorithmKind::kRta, 1.5, SmallOptions(1.5));
  const ProblemSignature b = ComputeSignature(
      query, FirstObjectives(3), AlgorithmKind::kRta, 1.5, SmallOptions(1.5));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(SignatureTest, QueryNameAndJoinOrderDoNotMatter) {
  Catalog catalog = MakeTinyCatalog();

  Query forward(&catalog, "forward");
  int f1 = forward.AddTable("fact");
  int d1 = forward.AddTable("dim1");
  int d2 = forward.AddTable("dim2");
  forward.AddJoin(f1, "f_d1", d1, "d1_key");
  forward.AddJoin(f1, "f_d2", d2, "d2_key");

  // Same structure, different name, joins added in reverse order and with
  // swapped endpoint order.
  Query reversed(&catalog, "reversed");
  int f2 = reversed.AddTable("fact");
  int e1 = reversed.AddTable("dim1");
  int e2 = reversed.AddTable("dim2");
  reversed.AddJoin(e2, "d2_key", f2, "f_d2");
  reversed.AddJoin(e1, "d1_key", f2, "f_d1");

  EXPECT_EQ(CanonicalQueryEncoding(forward), CanonicalQueryEncoding(reversed));
  EXPECT_EQ(ComputeSignature(forward, FirstObjectives(3), AlgorithmKind::kExa,
                             1.0, SmallOptions()),
            ComputeSignature(reversed, FirstObjectives(3), AlgorithmKind::kExa,
                             1.0, SmallOptions()));
}

TEST(SignatureTest, CatalogScaleChangesSignature) {
  // Structurally identical queries over differently scaled catalogs must
  // not share cached plans: cardinalities drive the cost model.
  Catalog small = Catalog::TpcH(0.01);
  Catalog large = Catalog::TpcH(1.0);
  Query q_small = MakeTpcHQuery(&small, 3);
  Query q_large = MakeTpcHQuery(&large, 3);
  EXPECT_NE(CanonicalQueryEncoding(q_small), CanonicalQueryEncoding(q_large));
  EXPECT_NE(ComputeSignature(q_small, FirstObjectives(3), AlgorithmKind::kRta,
                             1.5, SmallOptions()),
            ComputeSignature(q_large, FirstObjectives(3), AlgorithmKind::kRta,
                             1.5, SmallOptions()));
}

TEST(SignatureTest, StructureChangesChangeSignature) {
  Catalog catalog = MakeTinyCatalog();
  Query two = MakeStarQuery(&catalog, 2);
  Query three = MakeStarQuery(&catalog, 3);
  EXPECT_NE(ComputeSignature(two, FirstObjectives(3), AlgorithmKind::kRta,
                             1.5, SmallOptions()),
            ComputeSignature(three, FirstObjectives(3), AlgorithmKind::kRta,
                             1.5, SmallOptions()));
}

TEST(SignatureTest, SpecParametersChangeSignature) {
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  const ProblemSignature ref = ComputeSignature(
      query, FirstObjectives(3), AlgorithmKind::kRta, 1.5, SmallOptions());

  const ObjectiveSet other_objectives(
      {Objective::kTotalTime, Objective::kEnergy,
       Objective::kBufferFootprint});
  EXPECT_NE(ComputeSignature(query, other_objectives, AlgorithmKind::kRta,
                             1.5, SmallOptions()),
            ref);

  // Same spec, different resolved algorithm.
  EXPECT_NE(ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kExa,
                             1.5, SmallOptions()),
            ref);
}

TEST(SignatureTest, FrontierAlgorithmSignaturesAreAlphaFree) {
  // The PR-5 relaxed identity: for frontier-producing algorithms the
  // precision only grades the frontier, it does not change which problem
  // the frontier answers — the key is alpha-free and the PlanCache gates
  // on each entry's achieved alpha instead. The IRA stays alpha-keyed
  // (its output is tailored to precision AND preference).
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  EXPECT_EQ(ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kRta,
                             1.5, SmallOptions()),
            ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kRta,
                             2.0, SmallOptions()));

  WeightVector uniform = WeightVector::Uniform(3);
  EXPECT_NE(ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kIra,
                             1.5, SmallOptions(), &uniform),
            ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kIra,
                             2.0, SmallOptions(), &uniform));
}

TEST(SignatureTest, ExtendSignatureRestoresExactAlphaIdentity) {
  // Coalescing and the session registry must never mix precisions: the
  // extended signature re-encodes alpha bit-exactly on top of the relaxed
  // base key.
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  const ProblemSignature base = ComputeSignature(
      query, FirstObjectives(3), AlgorithmKind::kRta, 1.5, SmallOptions());
  EXPECT_EQ(ExtendSignature(base, 1.5), ExtendSignature(base, 1.5));
  EXPECT_NE(ExtendSignature(base, 1.5), ExtendSignature(base, 2.0));
  EXPECT_NE(ExtendSignature(base, 1.5), base);
}

TEST(SignatureTest, WeightsDoNotChangeFrontierAlgorithmSignatures) {
  // The core of the PR-2 redesign: for frontier-producing algorithms the
  // key is weight-free, so ANY preference shares the cached PlanSet.
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  WeightVector uniform = WeightVector::Uniform(3);
  WeightVector skewed = WeightVector::Uniform(3);
  skewed[1] = 7.0;
  BoundVector no_bounds;
  BoundVector bounded = BoundVector::Unbounded(3);
  bounded[0] = 1234.5;

  for (AlgorithmKind kind : {AlgorithmKind::kExa, AlgorithmKind::kRta,
                             AlgorithmKind::kSelinger}) {
    EXPECT_FALSE(IsPreferenceDependent(kind));
    const ProblemSignature a =
        ComputeSignature(query, FirstObjectives(3), kind, 1.5, SmallOptions(),
                         &uniform, &no_bounds);
    const ProblemSignature b =
        ComputeSignature(query, FirstObjectives(3), kind, 1.5, SmallOptions(),
                         &skewed, &bounded);
    EXPECT_EQ(a, b) << AlgorithmName(kind);
  }
}

TEST(SignatureTest, PreferenceDependentAlgorithmsEncodePreference) {
  // The IRA refines toward its bounds and the weighted-sum baseline prunes
  // by weighted cost: their entries must be preference-specific.
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  WeightVector uniform = WeightVector::Uniform(3);
  WeightVector skewed = WeightVector::Uniform(3);
  skewed[1] = 7.0;
  BoundVector no_bounds;
  BoundVector bounded = BoundVector::Unbounded(3);
  bounded[0] = 1234.5;

  for (AlgorithmKind kind :
       {AlgorithmKind::kIra, AlgorithmKind::kWeightedSum}) {
    EXPECT_TRUE(IsPreferenceDependent(kind));
    const ProblemSignature ref =
        ComputeSignature(query, FirstObjectives(3), kind, 1.5, SmallOptions(),
                         &uniform, &no_bounds);
    EXPECT_EQ(ComputeSignature(query, FirstObjectives(3), kind, 1.5,
                               SmallOptions(), &uniform, &no_bounds),
              ref)
        << AlgorithmName(kind);
    EXPECT_NE(ComputeSignature(query, FirstObjectives(3), kind, 1.5,
                               SmallOptions(), &skewed, &no_bounds),
              ref)
        << AlgorithmName(kind);
    EXPECT_NE(ComputeSignature(query, FirstObjectives(3), kind, 1.5,
                               SmallOptions(), &uniform, &bounded),
              ref)
        << AlgorithmName(kind);
  }
}

TEST(SignatureTest, AllUnboundedBoundsCanonicalizeToEmpty) {
  // bounds absent and bounds explicitly all-unbounded are the same
  // weighted-MOQO instance and must share cache entries (relevant only
  // for preference-dependent algorithms; frontier algorithms ignore
  // bounds in the key entirely).
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  WeightVector uniform = WeightVector::Uniform(3);
  BoundVector explicit_unbounded = BoundVector::Unbounded(3);
  EXPECT_EQ(ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kIra,
                             1.5, SmallOptions(), &uniform, nullptr),
            ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kIra,
                             1.5, SmallOptions(), &uniform,
                             &explicit_unbounded));
}

TEST(SignatureTest, PlanSpaceSwitchesChangeSignature) {
  Catalog catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(&catalog, 2);
  OptimizerOptions options = SmallOptions();
  const ProblemSignature ref = ComputeSignature(
      query, FirstObjectives(3), AlgorithmKind::kRta, 1.5, options);

  OptimizerOptions left_deep = options;
  left_deep.bushy = false;
  EXPECT_NE(ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kRta,
                             1.5, left_deep),
            ref);

  OptimizerOptions no_sampling = options;
  no_sampling.operators.sampling_rates = {};
  EXPECT_NE(ComputeSignature(query, FirstObjectives(3), AlgorithmKind::kRta,
                             1.5, no_sampling),
            ref);
}

// Golden cache identity. Snapshots persist each entry's key bytes and
// key_hash, and restore trusts the stored hash, so a change to any of
// these values orphans every persisted snapshot: an encoding or hash
// change must come with a snapshot format_version bump, never with new
// golden values.

OptimizerOptions GoldenOptions() {
  OptimizerOptions options;
  options.operators.sampling_rates = {0.05, 0.01};
  options.operators.dops = {1, 4};
  return options;
}

TEST(SignatureTest, GoldenComputeSignature) {
  Catalog sf1 = Catalog::TpcH(1.0);
  Catalog sf001 = Catalog::TpcH(0.01);

  const Query q3 = MakeTpcHQuery(&sf1, 3);
  ExpectGoldenKey(ComputeSignature(q3, FirstObjectives(3),
                                   AlgorithmKind::kRta, 1.5, GoldenOptions()),
                  4281, 0x54cddc2ca127ded1ull, 0x54eb6ba92d9ca6beull);

  const Query q5 = MakeTpcHQuery(&sf001, 5);
  WeightVector weights(6);
  for (int i = 0; i < 6; ++i) weights[i] = 0.5 + i * 0.25;
  BoundVector bounds(6);
  bounds[1] = 1e6;
  bounds[4] = 250.5;
  ExpectGoldenKey(ComputeSignature(q5, FirstObjectives(6),
                                   AlgorithmKind::kIra, 1.2, GoldenOptions(),
                                   &weights, &bounds),
                  6509, 0x0658257a9e56d47bull, 0x449b5e32657c2edaull);

  const Query q8 = MakeTpcHQuery(&sf1, 8);
  ExpectGoldenKey(ComputeSignature(q8, FirstObjectives(9),
                                   AlgorithmKind::kExa, 1.0, GoldenOptions()),
                  8665, 0xff389b3d02c4c840ull, 0x658e841832843971ull);
}

TEST(SignatureTest, GoldenExtendSignatureChain) {
  Catalog catalog = Catalog::TpcH(1.0);
  const Query q3 = MakeTpcHQuery(&catalog, 3);
  const ProblemSignature base = ComputeSignature(
      q3, FirstObjectives(3), AlgorithmKind::kRta, 1.5, GoldenOptions());

  // A session key: the alpha ladder, then the per-rung deadline.
  const std::vector<double> schedule = {4.0, 2.0, 1.5, 250.0};
  ProblemSignature chained = base;
  for (double value : schedule) {
    chained = ExtendSignature(chained, value);
    EXPECT_EQ(chained.hash, Fnv1a(chained.key));
  }
  ExpectGoldenKey(chained, 4313, 0xc351ffa323d485d5ull,
                  0xb439a0b7be6c8c10ull);
  EXPECT_EQ(ExtendSignature(base, schedule), chained);
}

TEST(SignatureTest, ExtendedHashEqualsHashOfExtendedKey) {
  Catalog catalog = MakeTinyCatalog();
  const ProblemSignature base =
      ComputeSignature(MakeStarQuery(&catalog, 3), FirstObjectives(3),
                       AlgorithmKind::kRta, 1.5, SmallOptions());
  for (double alpha : {1.0, 1.05, 2.0, 1e9}) {
    const ProblemSignature extended = ExtendSignature(base, alpha);
    EXPECT_EQ(extended.hash, Fnv1a(extended.key));
    EXPECT_EQ(extended.key.substr(0, base.key.size()), base.key);
    EXPECT_EQ(extended.key.size(), base.key.size() + 8);
  }
  EXPECT_EQ(ExtendSignature(base, std::vector<double>{}), base);
}

}  // namespace
}  // namespace moqo

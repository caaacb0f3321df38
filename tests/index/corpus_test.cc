#include "sppnet/index/corpus.h"

#include <gtest/gtest.h>

namespace sppnet {
namespace {

TEST(TitleCorpusTest, TitlesRespectTermCountBounds) {
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto tokens = InvertedIndex::Tokenize(corpus.SampleTitle(rng));
    EXPECT_GE(tokens.size(), corpus.params().min_title_terms);
    EXPECT_LE(tokens.size(), corpus.params().max_title_terms);
  }
}

TEST(TitleCorpusTest, QueriesRespectTermCountBounds) {
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const auto tokens = InvertedIndex::Tokenize(corpus.SampleQuery(rng));
    EXPECT_GE(tokens.size(), corpus.params().min_query_terms);
    EXPECT_LE(tokens.size(), corpus.params().max_query_terms);
  }
}

TEST(TitleCorpusTest, VocabularyIsZipfSkewed) {
  // The most popular term should appear in far more titles than a
  // mid-rank term.
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng rng(3);
  int top = 0, mid = 0;
  const std::string& top_term = corpus.Term(0);
  const std::string& mid_term = corpus.Term(500);
  for (int i = 0; i < 20000; ++i) {
    const auto tokens = InvertedIndex::Tokenize(corpus.SampleTitle(rng));
    for (const std::string& token : tokens) {
      if (token == top_term) {
        ++top;
        break;
      }
    }
    for (const std::string& token : tokens) {
      if (token == mid_term) {
        ++mid;
        break;
      }
    }
  }
  EXPECT_GT(top, 20 * std::max(mid, 1));
}

TEST(TitleCorpusTest, SampleCollectionAdvancesIds) {
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng rng(4);
  FileId next = 100;
  const auto records = corpus.SampleCollection(7, 20, &next, rng);
  ASSERT_EQ(records.size(), 20u);
  EXPECT_EQ(next, 120u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, 100 + i);
    EXPECT_EQ(records[i].owner, 7u);
    EXPECT_FALSE(records[i].title.empty());
  }
}

TEST(MeasureCorpusModelTest, ProbabilitiesAreSane) {
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng rng(5);
  const CorpusModelEstimate est =
      MeasureCorpusModel(corpus, 5000, 50, 2000, rng);
  EXPECT_GT(est.match_probability, 0.0);
  EXPECT_LT(est.match_probability, 0.1);
  EXPECT_GE(est.response_probability, 0.0);
  EXPECT_LE(est.response_probability, 1.0);
  // A 50-file collection responding is much likelier than any single
  // file matching.
  EXPECT_GT(est.response_probability, est.match_probability);
  EXPECT_EQ(est.files_sampled, 5000u);
}

TEST(MeasureCorpusModelTest, ResponseProbabilityGrowsWithCollectionSize) {
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng a(6), b(6);
  const auto small = MeasureCorpusModel(corpus, 4000, 20, 1500, a);
  const auto large = MeasureCorpusModel(corpus, 4000, 200, 1500, b);
  EXPECT_LT(small.response_probability, large.response_probability);
}

TEST(QueryModelParamsFromCorpusTest, CalibratesAnalyticalModel) {
  // The analytical QueryModel calibrated from a measured corpus must
  // reproduce the corpus's match probability and imply consistent
  // expected result counts.
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng rng(7);
  const CorpusModelEstimate est =
      MeasureCorpusModel(corpus, 6000, 60, 3000, rng);
  const QueryModel model(QueryModelParamsFromCorpus(est));
  EXPECT_NEAR(model.MatchProbability(), est.match_probability,
              1e-9 * est.match_probability);
  // E[N] for the sampled index size ~ measured hits per query.
  const double expected_hits =
      model.ExpectedResults(static_cast<double>(est.files_sampled));
  EXPECT_NEAR(expected_hits,
              est.match_probability * static_cast<double>(est.files_sampled),
              1e-6 * expected_hits);
}

TEST(TitleCorpusTest, KnownItemQueriesFindTheirFile) {
  // A super-peer's index over corpus titles answers a known-item search:
  // any two keywords of a shared title retrieve that file, whatever
  // else the cluster shares.
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng rng(9);
  InvertedIndex index;
  FileId next_id = 1;
  for (OwnerId owner = 0; owner < 9; ++owner) {
    index.InsertCollection(corpus.SampleCollection(owner, 150, &next_id, rng));
  }
  for (int i = 0; i < 200; ++i) {
    FileRecord wanted;
    wanted.id = next_id++;
    wanted.owner = 3;
    wanted.title = corpus.SampleTitle(rng);
    index.Insert(wanted);
    const auto tokens = InvertedIndex::Tokenize(wanted.title);
    ASSERT_GE(tokens.size(), 2u);
    const QueryResult r = index.Query(tokens[0] + " " + tokens.back());
    bool found = false;
    for (const QueryHit& hit : r.hits) {
      if (hit.file == wanted.id) {
        EXPECT_EQ(hit.owner, 3u);
        found = true;
      }
    }
    EXPECT_TRUE(found) << wanted.title;
    EXPECT_GE(r.distinct_owners, 1u);
  }
}

TEST(MeasureCorpusModelTest, DeterministicForSameSeed) {
  const TitleCorpus corpus = TitleCorpus::Default();
  Rng a(8), b(8);
  const auto ea = MeasureCorpusModel(corpus, 2000, 40, 500, a);
  const auto eb = MeasureCorpusModel(corpus, 2000, 40, 500, b);
  EXPECT_DOUBLE_EQ(ea.match_probability, eb.match_probability);
  EXPECT_DOUBLE_EQ(ea.response_probability, eb.response_probability);
}

}  // namespace
}  // namespace sppnet

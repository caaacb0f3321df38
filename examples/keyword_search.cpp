// Example: one super-peer's index up close. A super-peer keeps an
// inverted index over the titles its clients share (the data structure
// Section 3.2 prescribes) and answers conjunctive keyword queries from
// it. Titles and queries are sampled from a Zipfian corpus.

#include <cstdio>
#include <string>

#include "sppnet/index/corpus.h"
#include "sppnet/index/inverted_index.h"

int main() {
  using namespace sppnet;
  const TitleCorpus corpus = TitleCorpus::Default();

  // One cluster: nine clients sharing 150 files each.
  InvertedIndex index;
  FileId next_id = 1;
  Rng rng(99);
  for (OwnerId owner = 0; owner < 9; ++owner) {
    index.InsertCollection(corpus.SampleCollection(owner, 150, &next_id, rng));
  }
  std::printf("One cluster's index: %zu files, %zu distinct title "
              "keywords, ~%zu KB resident\n",
              index.num_files(), index.num_terms(),
              index.ApproximateMemoryBytes() / 1024);

  // A known-item search: query with two keywords from a shared title.
  {
    const std::string title = corpus.SampleTitle(rng);
    FileRecord wanted;
    wanted.id = next_id++;
    wanted.owner = 3;
    wanted.title = title;
    index.Insert(wanted);
    const auto tokens = InvertedIndex::Tokenize(title);
    const std::string q = tokens[0] + " " + tokens[1];
    const QueryResult r = index.Query(q);
    std::printf("  known-item query \"%s\": %zu hits from %zu clients\n",
                q.c_str(), r.hits.size(), r.distinct_owners);
  }

  // Random exploratory queries: most match nothing in a single
  // cluster — that is exactly why queries flood across super-peers.
  int with_hits = 0;
  constexpr int kProbes = 200;
  for (int i = 0; i < kProbes; ++i) {
    if (!index.Query(corpus.SampleQuery(rng)).hits.empty()) ++with_hits;
  }
  std::printf("  of %d random keyword queries, %d match locally — the "
              "rest need the overlay\n",
              kProbes, with_hits);
  return 0;
}

// Full OpenFT measurement study: the counterpart to limewire_study for the
// giFT/OpenFT network, highlighting the architectural contrast the paper
// measures — share registration at search nodes leaves no room for
// query-echoing worms, so prevalence is an order of magnitude lower and
// dominated by one super-spreader host.
//
//   ./openft_study [--quick] [study flags — see examples/study_cli.h]
//                  [--shards <n>] [--soa] [--no-superspreader]
//
// --shards N (default 1) runs the study on N engine shards, one worker
// thread each; output is byte-identical for every N. --soa (with --shards)
// swaps in the reduced SoA capacity model (core/shard_study) instead.
// --no-superspreader leaves the super-spreader host out of the population.
#include "study_cli.h"

int main(int argc, char** argv) {
  return p2p::examples::run_study_cli(argc, argv, p2p::examples::openft_cli());
}

// Full LimeWire measurement study: runs the standard 30-day configuration
// (or --quick), prints every analysis the paper reports for this network,
// and exports the raw response log to CSV for offline analysis.
//
//   ./limewire_study [--quick] [study flags — see examples/study_cli.h]
//                    [--shards <n>] [--soa]
//
// --shards N (default 1) runs the study on N engine shards, one worker
// thread each; output is byte-identical for every N (see README "Scaling a
// study across cores"). --soa (with --shards) swaps in the reduced SoA
// capacity model (core/shard_study) instead — the population-scaling
// variant.
#include "study_cli.h"

int main(int argc, char** argv) {
  return p2p::examples::run_study_cli(argc, argv, p2p::examples::limewire_cli());
}

// Full KAD measurement study: the distributed-hash-table counterpart to
// limewire_study / openft_study. Infected peers poison the keyword index
// (publishing lure-named aliases under popular keywords), and a set of
// passive honeypot vantages advertises bait content and logs every STORE
// and keyword query that reaches it — the E9/E10 coverage-vs-vantage-count
// analysis is computed from those observation logs.
//
//   ./kad_study [--quick|--longhaul] [study flags — see examples/study_cli.h]
//               [--honeypots <n>]
//
// A capture (--record, --record-dir) interleaves the active client's
// responses with the honeypot observations, so a replay rebuilds the same
// report — including the honeypot coverage block — without simulating.
// --longhaul selects the ten-week capture preset.
#include "study_cli.h"

int main(int argc, char** argv) {
  return p2p::examples::run_study_cli(argc, argv, p2p::examples::kad_cli());
}

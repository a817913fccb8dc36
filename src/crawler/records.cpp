#include "crawler/records.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace p2p::crawler {

std::vector<ResponseRecord> merge_logs(std::vector<std::vector<ResponseRecord>> streams,
                                       RecordSink* sink) {
  std::size_t total = 0;
  std::vector<std::size_t> live;  // non-empty streams
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const auto& stream = streams[s];
    if (!std::is_sorted(stream.begin(), stream.end(),
                        [](const ResponseRecord& a, const ResponseRecord& b) {
                          return a.at < b.at;
                        })) {
      throw std::logic_error("merge_logs: stream " + std::to_string(s) +
                             " is not time-ordered");
    }
    total += stream.size();
    if (!stream.empty()) live.push_back(s);
  }

  std::vector<ResponseRecord> log;
  if (live.size() == 1) {
    log = std::move(streams[live.front()]);
  } else {
    log.reserve(total);
    // Min-heap of the live streams on (head time, stream index).
    std::vector<std::size_t> next(streams.size(), 0);
    auto later = [&](std::size_t a, std::size_t b) {
      util::SimTime ta = streams[a][next[a]].at;
      util::SimTime tb = streams[b][next[b]].at;
      return tb < ta || (ta == tb && b < a);
    };
    std::make_heap(live.begin(), live.end(), later);
    while (!live.empty()) {
      std::pop_heap(live.begin(), live.end(), later);
      std::size_t s = live.back();
      log.push_back(std::move(streams[s][next[s]++]));
      if (next[s] < streams[s].size()) {
        std::push_heap(live.begin(), live.end(), later);
      } else {
        live.pop_back();
        std::vector<ResponseRecord>().swap(streams[s]);  // free it now
      }
    }
  }
  std::uint64_t id = 1;
  for (auto& rec : log) {
    rec.id = id++;
    if (sink != nullptr) sink->on_record(rec);
  }
  return log;
}

}  // namespace p2p::crawler

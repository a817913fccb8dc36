#include "crawler/fetch.h"

#include "files/file_types.h"

namespace p2p::crawler {

FetchPolicy resilient_fetch_policy() {
  FetchPolicy p;
  p.fetch_timeout = sim::SimDuration::seconds(120);
  p.retry_backoff = sim::SimDuration::seconds(5);
  p.retry_backoff_max = sim::SimDuration::minutes(2);
  p.breaker_threshold = 4;
  p.breaker_cooldown = sim::SimDuration::minutes(30);
  return p;
}

CrawlStats& CrawlStats::operator+=(const CrawlStats& other) {
  queries_sent += other.queries_sent;
  hits += other.hits;
  responses += other.responses;
  study_responses += other.study_responses;
  downloads_started += other.downloads_started;
  downloads_ok += other.downloads_ok;
  downloads_failed += other.downloads_failed;
  bytes_downloaded += other.bytes_downloaded;
  distinct_contents += other.distinct_contents;
  downloads_abandoned += other.downloads_abandoned;
  retries_spent += other.retries_spent;
  hosts_quarantined += other.hosts_quarantined;
  scan_timeouts += other.scan_timeouts;
  return *this;
}

ContentLabel scan_content(const malware::Scanner& scanner, const util::Bytes& content) {
  auto scan = scanner.scan(content);
  ContentLabel label;
  label.infected = scan.infected();
  label.strain = scan.primary();
  label.strain_name = label.infected ? scanner.strain_name(label.strain) : "";
  label.type_by_magic = files::classify_magic(content);
  label.size = content.size();
  return label;
}

void label_records(std::vector<ResponseRecord>& records, const LabelStore& labels) {
  for (auto& rec : records) {
    if (!rec.is_study_type()) continue;
    rec.download_attempted = true;
    if (const ContentLabel* label = labels.find(rec.content_key)) {
      rec.downloaded = true;
      rec.infected = label->infected;
      rec.strain = label->strain;
      rec.strain_name = label->strain_name;
      rec.type_by_magic = label->type_by_magic;
    }
  }
}

}  // namespace p2p::crawler

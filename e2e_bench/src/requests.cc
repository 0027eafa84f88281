#include "requests.h"

#include <set>

#include "common.h"

namespace e2e {

const char* const kReportSheet =
    "<xsl:stylesheet>"
    "<xsl:template match=\"/\">"
    "<report count=\"{results/@count}\">"
    "<xsl:for-each select=\"results/result\"><xsl:sort select=\"@doc\"/>"
    "<section doc=\"{@doc}\"><h><xsl:value-of select=\"context\"/></h>"
    "<body><xsl:value-of select=\"content\"/></body></section>"
    "</xsl:for-each></report>"
    "</xsl:template>"
    "</xsl:stylesheet>";

namespace {

// Section headings the six generators emit.
const std::vector<std::string> kContexts = {
    "Abstract",          "Technical Approach", "Budget",
    "Management Plan",   "Introduction",       "Budget Summary",
    "Schedule",          "Anomaly Description", "Corrective Action",
    "Disposition",       "Lesson",             "Recommendations",
    "Risk Assessment",   "Mitigation",         "Conclusions",
    "Title",
};

// Body vocabulary: the generators' topic terms plus common filler words.
std::vector<std::string> ContentTerms() {
  std::vector<std::string> terms = netmark::workload::CorpusGenerator::TopicTerms();
  for (const char* filler : {"analysis", "flight", "test", "performance",
                             "requirements", "review"}) {
    terms.push_back(filler);
  }
  return terms;
}

std::string Plus(std::string text) {
  for (char& c : text) {
    if (c == ' ') c = '+';
  }
  return text;
}

std::string Target(const std::string& context, const std::string& content,
                   bool xslt, size_t limit, const std::string& databank) {
  std::string q;
  auto add = [&q](const std::string& kv) {
    if (!q.empty()) q += '&';
    q += kv;
  };
  if (!context.empty()) add("context=" + Plus(context));
  if (!content.empty()) add("content=" + Plus(content));
  if (xslt) add("xslt=report");
  if (limit != 0) add("limit=" + std::to_string(limit));
  if (!databank.empty()) add("databank=" + databank);
  return "/xdb?" + q;
}

}  // namespace

std::vector<netmark::workload::GeneratedDoc> MixedCorpus(uint64_t seed, size_t n,
                                                         const std::string& prefix) {
  netmark::workload::CorpusGenerator gen(seed);
  std::vector<netmark::workload::GeneratedDoc> docs = gen.MixedCorpus(n);
  for (auto& doc : docs) doc.file_name = prefix + doc.file_name;
  return docs;
}

std::vector<std::string> HotSpace(const std::string& databank) {
  SplitMix64 rng(0x686F74ULL);
  const std::vector<std::string> terms = ContentTerms();
  std::set<std::string> seen;
  std::vector<std::string> space;
  while (space.size() < 64) {
    const std::string& context = kContexts[rng.Below(kContexts.size())];
    std::string content = terms[rng.Below(terms.size())];
    // Databank queries carry no xslt=: the router forwards it to remote
    // sources, whose transformed reply it then cannot parse.
    const bool xslt = rng.Below(3) == 0 && databank.empty();
    std::string target;
    switch (space.size() % 3) {
      case 0:  // context-only: a page of 10 or 20 of a heading's sections
        target = Target(context, "", xslt, 10 * (1 + rng.Below(2)), databank);
        break;
      case 1:  // context+content
        target = Target(context, content, xslt, 0, databank);
        break;
      default:  // content-only: a page of whole documents
        target = Target("", content + " " + terms[rng.Below(terms.size())], xslt,
                        10, databank);
        break;
    }
    if (seen.insert(target).second) space.push_back(target);
  }
  return space;
}

std::vector<std::string> ColdSpace() {
  const std::vector<std::string> terms = ContentTerms();
  std::vector<std::string> space;
  for (const std::string& context : kContexts) {
    for (bool xslt : {false, true}) {
      // Broad context-only sections (Budget alone has hundreds of hits).
      space.push_back(Target(context, "", xslt, 0, ""));
      for (size_t a = 0; a < terms.size(); ++a) {
        space.push_back(Target(context, terms[a], xslt, 0, ""));
        for (size_t b = a + 1; b < terms.size(); ++b) {
          space.push_back(Target(context, terms[a] + " " + terms[b], xslt, 0, ""));
        }
      }
    }
  }
  return space;
}

std::vector<uint32_t> ZipfSequence(uint64_t seed, size_t n, size_t count) {
  SplitMix64 rng(seed ^ 0x7A697066ULL);
  ZipfSampler zipf(n, 1.0);
  std::vector<uint32_t> out(count);
  for (uint32_t& v : out) v = static_cast<uint32_t>(zipf.Sample(rng));
  return out;
}

std::vector<uint32_t> UniformSequence(uint64_t seed, size_t n, size_t count) {
  SplitMix64 rng(seed ^ 0x756E6966ULL);
  std::vector<uint32_t> out(count);
  for (uint32_t& v : out) v = static_cast<uint32_t>(rng.Below(n));
  return out;
}

std::vector<PutDoc> PutStream(uint64_t seed, size_t count) {
  SplitMix64 rng(seed ^ 0x707574ULL);
  std::vector<netmark::workload::GeneratedDoc> docs =
      MixedCorpus(seed ^ 0x707574ULL, count, "put_");
  std::vector<PutDoc> out;
  out.reserve(count);
  for (size_t i = 0; i < docs.size(); ++i) {
    PutDoc put;
    put.body = std::move(docs[i].content);
    put.name = std::move(docs[i].file_name);
    // Overwrite an earlier name of the same format (same extension), so
    // the replacement converts the way the original did.
    if (i >= 6 && rng.Below(5) == 0) {
      size_t earlier = i - 6 * (1 + rng.Below(i / 6));
      put.name = out[earlier].name;
      put.overwrite = true;
    }
    out.push_back(std::move(put));
  }
  return out;
}

}  // namespace e2e

#include "match/match_io.h"

#include <map>

#include "util/file_io.h"
#include "util/string_util.h"

namespace wikimatch {
namespace match {

std::string WriteMatchSets(const TypeMatchSets& matches) {
  std::string out = "# type\tlang\tattribute\tcluster_id\n";
  for (const auto& [type_b, match_set] : matches) {
    size_t cluster_id = 0;
    for (const auto& cluster : match_set.Clusters()) {
      for (const auto& attr : cluster) {
        out += type_b + "\t" + attr.language + "\t" + attr.name + "\t" +
               std::to_string(cluster_id) + "\n";
      }
      ++cluster_id;
    }
  }
  return out;
}

util::Result<TypeMatchSets> ReadMatchSets(const std::string& tsv) {
  TypeMatchSets out;
  // (type, cluster_id) -> members
  std::map<std::pair<std::string, std::string>, std::vector<eval::AttrKey>>
      clusters;
  size_t line_no = 0;
  for (const auto& line : util::Split(tsv, '\n')) {
    ++line_no;
    std::string_view trimmed = util::StripAsciiWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto fields = util::Split(trimmed, '\t');
    if (fields.size() != 4) {
      return util::Status::ParseError("matches TSV line " +
                                      std::to_string(line_no) +
                                      ": expected 4 fields");
    }
    clusters[{fields[0], fields[3]}].push_back(
        eval::AttrKey{fields[1], fields[2]});
  }
  for (const auto& [key, members] : clusters) {
    out[key.first].AddCluster(members);
  }
  return out;
}

util::Status SaveMatchSets(const TypeMatchSets& matches,
                           const std::string& path) {
  return util::WriteFile(path, WriteMatchSets(matches));
}

util::Result<TypeMatchSets> LoadMatchSets(const std::string& path) {
  WIKIMATCH_ASSIGN_OR_RETURN(std::string content, util::ReadFile(path));
  return ReadMatchSets(content);
}

std::string WriteDictionary(const TranslationDictionary& dictionary) {
  std::string out = "# from_lang\tterm\tto_lang\ttranslation\n";
  for (const auto& [key, translation] : dictionary.entries()) {
    const auto& [from_lang, to_lang, term] = key;
    out += from_lang + "\t" + term + "\t" + to_lang + "\t" + translation +
           "\n";
  }
  return out;
}

util::Result<TranslationDictionary> ReadDictionary(const std::string& tsv) {
  TranslationDictionary out;
  size_t line_no = 0;
  for (const auto& line : util::Split(tsv, '\n')) {
    ++line_no;
    std::string_view trimmed = util::StripAsciiWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto fields = util::Split(trimmed, '\t');
    if (fields.size() != 4) {
      return util::Status::ParseError("dictionary TSV line " +
                                      std::to_string(line_no) +
                                      ": expected 4 fields");
    }
    out.Add(fields[0], fields[1], fields[2], fields[3]);
  }
  return out;
}

}  // namespace match
}  // namespace wikimatch

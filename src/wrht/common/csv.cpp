#include "wrht/common/csv.hpp"

#include "wrht/common/error.hpp"

namespace wrht {

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : out_(path), arity_(header.size()) {
  if (!out_.good()) throw InvalidArgument("CsvWriter: cannot open " + path);
  add_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  require(cells.size() == arity_, "CsvWriter: row arity mismatch");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace wrht

#ifndef TSG_IO_CSV_H_
#define TSG_IO_CSV_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "linalg/matrix.h"

namespace tsg::io {

/// Writes a numeric matrix as CSV with an optional header row. Benches use this to
/// emit reproducible figure data (t-SNE coordinates, KDE curves, score grids).
/// Header cells are RFC-4180 quoted when needed; the file is written atomically
/// (temp file + rename), so a killed process never leaves a truncated artifact.
Status WriteCsv(const std::string& path, const std::vector<std::string>& header,
                const linalg::Matrix& data);

/// Writes ready-made string rows (for mixed text/number tables). Cells containing
/// a comma, quote, or newline are RFC-4180 quoted so ReadCsvRows round-trips them.
/// The file is written atomically.
Status WriteCsvRows(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

/// Quotes one cell for CSV output if (and only if) it needs it per RFC 4180.
std::string EscapeCsvField(const std::string& cell);

/// Parses one cell as a double. The full cell must be consumed apart from
/// surrounding whitespace — "1.5abc", "abc" and "" are errors, unlike bare
/// strtod. Everything %.17g prints parses back bit-for-bit: "nan", "inf" and
/// subnormals included; only out-of-range values such as "1e999" are rejected.
bool ParseDoubleCell(const std::string& cell, double* out);

/// Reads a CSV file into string records. Handles RFC-4180 quoting (embedded
/// commas, doubled quotes, embedded newlines), CRLF line endings, and preserves
/// trailing empty fields ("1,2," is three fields). Lines that are entirely empty
/// are skipped; a file with no records is an InvalidArgument error.
StatusOr<std::vector<std::vector<std::string>>> ReadCsvRows(const std::string& path);

/// Reads a numeric CSV; `skip_header` drops the first record. Cells that fail to
/// parse — including trailing garbage like "1.5abc" and empty cells — make the
/// whole read fail, so silently corrupted data can't slip through. Ragged rows and
/// empty (or header-only) files are InvalidArgument errors.
StatusOr<linalg::Matrix> ReadCsv(const std::string& path, bool skip_header);

}  // namespace tsg::io

#endif  // TSG_IO_CSV_H_

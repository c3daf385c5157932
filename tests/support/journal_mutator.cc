#include "support/journal_mutator.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/rng.h"

namespace faascache {

namespace {

/** Split into lines, keeping each line's trailing '\n' when present. */
std::vector<std::string>
splitLines(const std::string& content)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < content.size()) {
        std::size_t end = content.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(content.substr(start));
            break;
        }
        lines.push_back(content.substr(start, end - start + 1));
        start = end + 1;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string>& lines)
{
    std::string out;
    for (const std::string& line : lines)
        out += line;
    return out;
}

}  // namespace

std::string
mutateJournal(const std::string& content, std::uint64_t seed,
              JournalMutation* applied)
{
    JournalMutation mutation;
    Rng rng(Rng::hashMix(seed ^ 0x6A0C0DE5ULL));
    std::string out = content;

    if (content.empty()) {
        mutation.kind = "append-garbage";
        mutation.detail = "input was empty";
        out = "garbage\n";
        if (applied != nullptr)
            *applied = mutation;
        return out;
    }

    switch (rng.uniformInt(7)) {
      case 0: {  // flip one bit anywhere in the file
        const std::size_t offset = rng.uniformInt(content.size());
        const int bit = static_cast<int>(rng.uniformInt(8));
        out[offset] = static_cast<char>(
            static_cast<unsigned char>(out[offset]) ^ (1u << bit));
        mutation.kind = "bit-flip";
        std::ostringstream d;
        d << "offset " << offset << " bit " << bit;
        mutation.detail = d.str();
        break;
      }
      case 1: {  // truncate, possibly mid-record
        const std::size_t keep = rng.uniformInt(content.size());
        out = content.substr(0, keep);
        mutation.kind = "truncate";
        std::ostringstream d;
        d << "kept " << keep << " of " << content.size() << " bytes";
        mutation.detail = d.str();
        break;
      }
      case 2: {  // duplicate a line in place
        std::vector<std::string> lines = splitLines(content);
        const std::size_t i = rng.uniformInt(lines.size());
        lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
        out = joinLines(lines);
        mutation.kind = "duplicate-line";
        std::ostringstream d;
        d << "line " << i << " of " << lines.size() - 1;
        mutation.detail = d.str();
        break;
      }
      case 3: {  // swap two lines (reordering)
        std::vector<std::string> lines = splitLines(content);
        const std::size_t i = rng.uniformInt(lines.size());
        const std::size_t j = rng.uniformInt(lines.size());
        std::swap(lines[i], lines[j]);
        out = joinLines(lines);
        mutation.kind = "swap-lines";
        std::ostringstream d;
        d << "lines " << i << " and " << j;
        mutation.detail = d.str();
        break;
      }
      case 4: {  // delete a line
        std::vector<std::string> lines = splitLines(content);
        const std::size_t i = rng.uniformInt(lines.size());
        lines.erase(lines.begin() + static_cast<long>(i));
        out = joinLines(lines);
        mutation.kind = "delete-line";
        std::ostringstream d;
        d << "line " << i << " of " << lines.size() + 1;
        mutation.detail = d.str();
        break;
      }
      case 5: {  // corrupt a byte of the header line
        const std::size_t header_end =
            std::min(content.find('\n'), content.size() - 1);
        const std::size_t offset =
            header_end > 0 ? rng.uniformInt(header_end) : 0;
        // Replace with a printable byte that differs, so the header
        // stays one line but its text (magic / version / fingerprint)
        // no longer matches.
        char replacement =
            static_cast<char>('!' + rng.uniformInt(94));
        if (replacement == out[offset])
            replacement = replacement == '!' ? '"' : '!';
        out[offset] = replacement;
        mutation.kind = "corrupt-header";
        std::ostringstream d;
        d << "offset " << offset << " '" << content[offset] << "' -> '"
          << replacement << "'";
        mutation.detail = d.str();
        break;
      }
      default: {  // append garbage past the last record
        const std::size_t len = 1 + rng.uniformInt(64);
        std::string garbage;
        garbage.reserve(len);
        for (std::size_t i = 0; i < len; ++i)
            garbage.push_back(
                static_cast<char>(rng.uniformInt(256)));
        out += garbage;
        mutation.kind = "append-garbage";
        std::ostringstream d;
        d << len << " bytes";
        mutation.detail = d.str();
        break;
      }
    }

    if (applied != nullptr)
        *applied = mutation;
    return out;
}

}  // namespace faascache

/**
 * @file
 * Deterministic checkpoint-journal mutator (crash-consistency fuzzing).
 *
 * tests/checkpoint_fuzz_test.cc feeds thousands of corrupted journals
 * through the resume path and asserts the contract of
 * util/checkpoint_journal.h: a resume either restores exactly what an
 * uninterrupted run wrote (byte-identical payloads) or refuses with a
 * named error — never crashes, never silently diverges. This mutator
 * produces the corruptions: given a journal's bytes and a seed, it
 * applies one deterministic mutation drawn from the classes a real
 * filesystem failure (or a hostile edit) produces — single bit flips,
 * truncation mid-record, duplicated / reordered / deleted records, and
 * header corruption — and reports what it did, so a failing seed
 * reproduces and explains itself.
 */
#ifndef FAASCACHE_TESTS_SUPPORT_JOURNAL_MUTATOR_H_
#define FAASCACHE_TESTS_SUPPORT_JOURNAL_MUTATOR_H_

#include <cstdint>
#include <string>

namespace faascache {

/** What mutateJournal() did to the bytes (for failure messages). */
struct JournalMutation
{
    /** Mutation class: "bit-flip", "truncate", "duplicate-line",
     *  "swap-lines", "delete-line", "corrupt-header", "append-garbage". */
    std::string kind;

    /** Specifics (offset / line indices / byte values). */
    std::string detail;

    std::string format() const { return kind + " (" + detail + ")"; }
};

/**
 * Apply one seeded mutation to `content` (a whole journal file's
 * bytes). Equal (content, seed) pairs produce equal output — the fuzz
 * battery is reproducible seed by seed.
 *
 * @param content  Original journal bytes.
 * @param seed     Selects the mutation class and its parameters.
 * @param applied  When non-null, receives a description of the
 *                 mutation.
 * @return The mutated bytes (may equal `content` only for degenerate
 *         inputs, e.g. an empty journal).
 */
std::string mutateJournal(const std::string& content, std::uint64_t seed,
                          JournalMutation* applied = nullptr);

}  // namespace faascache

#endif  // FAASCACHE_TESTS_SUPPORT_JOURNAL_MUTATOR_H_

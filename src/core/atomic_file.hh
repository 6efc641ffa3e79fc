/**
 * @file
 * Durable whole-file replacement, shared by the explore checkpoint
 * and the calibration cache. The content goes to a temporary file
 * next to the target, is fsync'ed and closed, then renamed over the
 * target, so a reader — or a run restarted after SIGKILL — sees either
 * the previous complete file or the new complete one, never a mix.
 */

#ifndef DHDL_CORE_ATOMIC_FILE_HH
#define DHDL_CORE_ATOMIC_FILE_HH

#include <string>
#include <string_view>

namespace dhdl {

/**
 * Atomically replace `path` with `content`. Every call writes its own
 * temporary (`<path>.tmp.<pid>.<seq>`), so concurrent writers of one
 * path — threads or processes racing on the same calibration cache
 * miss — never interleave bytes in a shared temporary; the last
 * rename wins with a whole file. Returns false (leaving `path`
 * untouched and no temporary behind) when any step fails.
 *
 * A writer killed between creating and renaming its temporary leaves
 * it behind; each call first removes the temporaries of `path` whose
 * writer pid no longer exists, so orphans do not pile up. A writer in
 * another pid namespace sharing the directory looks dead here: its
 * temporary may be removed under it, and its rename then fails (a
 * failed write, never a torn file).
 */
bool writeFileAtomic(const std::string& path, std::string_view content);

} // namespace dhdl

#endif // DHDL_CORE_ATOMIC_FILE_HH

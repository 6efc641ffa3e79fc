#include "core/atomic_file.hh"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>

namespace dhdl {

namespace {

/** Write `bytes` to an fd completely; false on any error. */
bool
writeAll(int fd, std::string_view bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n <= 0)
            return false;
        off += size_t(n);
    }
    return true;
}

/**
 * The writer pid of `name` if it is `<base>.tmp.<pid>.<seq>`, else 0.
 */
pid_t
tempWriter(std::string_view name, std::string_view base)
{
    constexpr std::string_view kTmp = ".tmp.";
    if (name.size() <= base.size() + kTmp.size() ||
        name.substr(0, base.size()) != base ||
        name.substr(base.size(), kTmp.size()) != kTmp)
        return 0;
    const char* p = name.data() + base.size() + kTmp.size();
    const char* end = name.data() + name.size();
    pid_t pid = 0;
    uint64_t seq = 0;
    auto r = std::from_chars(p, end, pid);
    if (r.ec != std::errc{} || pid <= 0 || r.ptr == end ||
        *r.ptr != '.')
        return 0;
    r = std::from_chars(r.ptr + 1, end, seq);
    return r.ec == std::errc{} && r.ptr == end ? pid : 0;
}

/**
 * Remove the temporaries of `path` left by writers that died between
 * creating and renaming them (SIGKILL, a crash). A temporary whose
 * writer is alive — this process's other threads, another process —
 * is left alone.
 */
void
removeDeadWritersTemps(const std::string& path)
{
    const size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : path.substr(0, slash + 1);
    const std::string_view base =
        std::string_view(path).substr(dir.size());
    DIR* d = ::opendir(dir.empty() ? "." : dir.c_str());
    if (!d)
        return;
    while (const dirent* e = ::readdir(d)) {
        const pid_t pid = tempWriter(e->d_name, base);
        if (pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH)
            std::remove((dir + e->d_name).c_str());
    }
    ::closedir(d);
}

} // namespace

bool
writeFileAtomic(const std::string& path, std::string_view content)
{
    removeDeadWritersTemps(path);
    static std::atomic<uint64_t> seq{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(seq++);
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0)
        return false;
    bool ok = writeAll(fd, content) && ::fsync(fd) == 0;
    ok = (::close(fd) == 0) && ok;
    if (ok && std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::remove(tmp.c_str());
    return false;
}

} // namespace dhdl

#include "serve/plan_cache.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "core/checksum.hh"
#include "core/printer.hh"
#include "obs/metrics.hh"

namespace dhdl::serve {

namespace {

/** Compile the plan for an entry, recording its wall-clock. */
void
compileInto(CachedPlan& entry)
{
    auto t0 = std::chrono::steady_clock::now();
    entry.plan = dse::Evaluator::tryCompile(entry.graph);
    entry.planSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0)
            .count();
}

/** Alias name of a registry design at a scale: the name followed by
 *  the scale's 8 bytes, so distinct pairs never share a name. */
std::string
aliasName(const std::string& design, double scale)
{
    std::string name = design;
    char bits[sizeof scale];
    std::memcpy(bits, &scale, sizeof scale);
    name.append(bits, sizeof bits);
    return name;
}

} // namespace

PlanCache::PlanCache(size_t capacity)
    : cap_(std::max<size_t>(1, capacity)) {}

void
PlanCache::touch(Slot& slot, uint64_t key)
{
    lru_.erase(slot.lru);
    lru_.push_front(key);
    slot.lru = lru_.begin();
}

void
PlanCache::dropAlias(const std::string& name, uint64_t key)
{
    auto a = aliases_.find(name);
    if (a != aliases_.end() && a->second == key)
        aliases_.erase(a);
}

std::shared_ptr<const CachedPlan>
PlanCache::lookupAlias(const std::string& design, double scale)
{
    static const obs::Counter cHit("serve.cache.hit");

    const std::string name = aliasName(design, scale);
    std::lock_guard<std::mutex> lock(mu_);
    auto a = aliases_.find(name);
    if (a == aliases_.end())
        return nullptr;
    auto it = map_.find(a->second);
    if (it == map_.end() || !it->second.entry)
        return nullptr;
    touch(it->second, a->second);
    ++hits_;
    cHit.add(1);
    return it->second.entry;
}

void
PlanCache::addAlias(const std::string& design, double scale,
                    const std::shared_ptr<const CachedPlan>& entry)
{
    std::string name = aliasName(design, scale);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(entry->key);
    if (it == map_.end() || it->second.entry != entry)
        return;
    auto [a, fresh] = aliases_.try_emplace(name, entry->key);
    if (!fresh) {
        if (a->second == entry->key)
            return;
        a->second = entry->key;
    }
    std::vector<std::string>& names = it->second.aliases;
    names.push_back(std::move(name));
    if (names.size() > kAliasesPerEntry) {
        dropAlias(names.front(), entry->key);
        names.erase(names.begin());
    }
}

std::shared_ptr<const CachedPlan>
PlanCache::acquire(Graph g, bool* hit)
{
    static const obs::Counter cHit("serve.cache.hit");
    static const obs::Counter cMiss("serve.cache.miss");
    static const obs::Counter cEvict("serve.cache.evict");

    const std::string ir = emitIR(g);
    const uint64_t key = fnv1a(ir);
    if (hit)
        *hit = false;

    std::unique_lock<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Entry exists or is being built by another thread; wait for
        // the builder so every concurrent requester receives the
        // identical plan pointer.
        builtCv_.wait(lock, [&] {
            auto e = map_.find(key);
            return e == map_.end() || e->second.entry != nullptr;
        });
        it = map_.find(key);
        if (it != map_.end() && it->second.entry) {
            if (it->second.entry->ir == ir) {
                touch(it->second, key);
                ++hits_;
                if (hit)
                    *hit = true;
                cHit.add(1);
                return it->second.entry;
            }
            // FNV collision: never serve a plan for a different IR.
            // Compile outside the cache and leave the resident entry
            // alone.
            ++collisions_;
            ++misses_;
            lock.unlock();
            auto entry = std::make_shared<CachedPlan>(std::move(g));
            entry->key = key;
            entry->ir = ir;
            compileInto(*entry);
            cMiss.add(1);
            return entry;
        }
        // The builder vanished (its insert failed); fall through and
        // build ourselves.
    }

    // Miss: reserve the key (null entry = building) so concurrent
    // requesters wait instead of compiling twice, then compile
    // outside the lock.
    ++misses_;
    lru_.push_front(key);
    map_[key] = Slot{nullptr, lru_.begin(), {}};
    lock.unlock();
    cMiss.add(1);

    // The plan points into the graph, so the graph must reach its
    // final address (inside the shared entry) before compilation.
    auto entry = std::make_shared<CachedPlan>(std::move(g));
    entry->key = key;
    entry->ir = ir;
    compileInto(*entry);

    lock.lock();
    auto slot = map_.find(key);
    if (slot != map_.end())
        slot->second.entry = entry;
    // Evict least-recently-used complete entries over capacity.
    // In-flight builds (null entries) are never evicted.
    while (map_.size() > cap_ && !lru_.empty()) {
        bool evicted = false;
        for (auto r = lru_.rbegin(); r != lru_.rend(); ++r) {
            auto v = map_.find(*r);
            if (v == map_.end() || !v->second.entry ||
                v->second.entry == entry)
                continue;
            lru_.erase(std::next(r).base());
            for (const std::string& name : v->second.aliases)
                dropAlias(name, v->first);
            map_.erase(v);
            ++evictions_;
            cEvict.add(1);
            evicted = true;
            break;
        }
        if (!evicted)
            break;
    }
    lock.unlock();
    builtCv_.notify_all();
    return entry;
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.collisions = collisions_;
    s.size = map_.size();
    s.capacity = cap_;
    return s;
}

} // namespace dhdl::serve

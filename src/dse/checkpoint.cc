#include "dse/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "core/atomic_file.hh"
#include "core/checksum.hh"
#include "core/faultinject.hh"
#include "core/printer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::dse {

namespace {

constexpr const char* kMagicV2 = "# dhdl-explore-checkpoint v2";

/** Split a row on the first n commas; element n is the remainder. */
std::vector<std::string>
splitFields(const std::string& line, size_t n)
{
    std::vector<std::string> out;
    size_t pos = 0;
    for (size_t i = 0; i < n; ++i) {
        size_t comma = line.find(',', pos);
        if (comma == std::string::npos)
            return out; // short row; caller rejects
        out.push_back(line.substr(pos, comma - pos));
        pos = comma + 1;
    }
    out.push_back(line.substr(pos));
    return out;
}

/** One record's payload (everything before the trailing CRC field).
 *  `withRound` inserts the search-round column (non-random
 *  strategies only, keeping historical files byte-identical). */
std::string
renderRecord(size_t index, const DesignPoint& p, bool withRound)
{
    std::ostringstream os;
    os << std::setprecision(17);
    // Stage and reason are free-form; strip the characters that
    // would break the line/field structure.
    auto clean = [](std::string s, bool commas) {
        std::replace(s.begin(), s.end(), '\n', ' ');
        if (commas)
            std::replace(s.begin(), s.end(), ',', ';');
        return s;
    };
    os << index << "," << (p.valid ? 1 : 0) << ","
       << (p.failed ? 1 : 0) << "," << diagCodeName(p.failCode)
       << "," << clean(p.failStage, true) << "," << p.area.alms
       << "," << p.area.luts << "," << p.area.regs << ","
       << p.area.dsps << "," << p.area.brams << "," << p.cycles
       << ",";
    for (size_t j = 0; j < p.binding.values.size(); ++j)
        os << (j ? " " : "") << p.binding.values[j];
    if (withRound)
        os << "," << p.round;
    // The reason may contain commas; it is delimited by the CRC
    // being the *last* comma-field of the line.
    os << "," << clean(p.failReason, false);
    return os.str();
}

/** Byte offsets (start, end) of every data line in `content`. */
std::vector<std::pair<size_t, size_t>>
dataLineSpans(const std::string& content)
{
    std::vector<std::pair<size_t, size_t>> spans;
    size_t pos = 0;
    while (pos < content.size()) {
        size_t nl = content.find('\n', pos);
        size_t end = nl == std::string::npos ? content.size() : nl;
        if (end > pos && content[pos] != '#')
            spans.emplace_back(pos, end);
        if (nl == std::string::npos)
            break;
        pos = nl + 1;
    }
    return spans;
}

/**
 * Apply armed checkpoint faults to the serialized content. Returns
 * true when the content must additionally be written *non-atomically*
 * (the torn-tail injection simulates a writer killed mid-write).
 */
bool
injectFaults(std::string& content)
{
    if (!fault::active())
        return false;
    if (auto rec = fault::armed(fault::Point::CorruptRecord)) {
        auto spans = dataLineSpans(content);
        if (size_t(*rec) <= spans.size()) {
            // Flip one payload byte of record `rec` (1-based); any
            // change breaks that record's CRC on load.
            size_t at = spans[size_t(*rec) - 1].first;
            content[at] = content[at] == 'x' ? 'y' : 'x';
            obs::addCounter("fault.fired.corrupt-record", 1);
        }
    }
    if (fault::hit(fault::Point::TornCheckpoint)) {
        auto spans = dataLineSpans(content);
        if (!spans.empty()) {
            auto [lo, hi] = spans.back();
            content.resize(lo + (hi - lo) / 2); // cut mid-record
        }
        return true;
    }
    return false;
}

Status
mismatch(const std::string& path, const std::string& why)
{
    Diag d;
    d.code = DiagCode::CheckpointMismatch;
    d.severity = DiagSeverity::Error;
    d.stage = "checkpoint";
    d.message = "checkpoint '" + path + "' refused: " + why;
    return Status::error(std::move(d));
}

} // namespace

CheckpointMeta
makeCheckpointMeta(const Graph& g, const ParamSpace& space,
                   uint64_t seed, size_t total)
{
    CheckpointMeta meta;
    meta.designHash = fnv1a(emitIR(g));
    std::ostringstream os;
    for (const auto& values : space.legalValues()) {
        for (int64_t v : values)
            os << v << " ";
        os << ";";
    }
    meta.spaceHash = fnv1a(os.str());
    meta.seed = seed;
    meta.total = total;
    meta.nparams = g.params().size();
    return meta;
}

std::string
renderCheckpoint(const CheckpointMeta& meta,
                 const std::vector<DesignPoint>& points)
{
    const bool withRound =
        !meta.strategy.empty() && meta.strategy != "random";
    std::ostringstream os;
    os << kMagicV2 << "\n";
    os << "# design=" << hexDigits(meta.designHash, 16)
       << " space=" << hexDigits(meta.spaceHash, 16) << " seed=" << meta.seed
       << " total=" << meta.total << " nparams=" << meta.nparams
       << "\n";
    if (withRound) {
        os << "# strategy=" << meta.strategy << "\n";
        os << "# columns: index,valid,failed,failcode,failstage,alms,"
              "luts,regs,dsps,brams,cycles,binding,round,failreason,"
              "crc32\n";
    } else {
        os << "# columns: index,valid,failed,failcode,failstage,alms,"
              "luts,regs,dsps,brams,cycles,binding,failreason,crc32\n";
    }
    for (size_t i = 0; i < points.size(); ++i) {
        if (!points[i].evaluated)
            continue;
        std::string payload = renderRecord(i, points[i], withRound);
        os << payload << "," << hexDigits(crc32(payload), 8) << "\n";
    }
    return os.str();
}

bool
writeCheckpointFile(const std::string& path,
                    const CheckpointMeta& meta,
                    const std::vector<DesignPoint>& points)
{
    const bool traced = obs::enabled();
    const uint64_t t0 = traced ? obs::nowMicros() : 0;
    std::string content = renderCheckpoint(meta, points);
    bool ok;
    if (injectFaults(content)) {
        // Torn-tail injection: bypass the atomic protocol on
        // purpose, leaving exactly the file a killed non-atomic
        // writer would have left.
        std::ofstream os(path, std::ios::trunc | std::ios::binary);
        os << content;
        ok = bool(os);
    } else {
        ok = writeFileAtomic(path, content);
    }
    if (traced) {
        static const obs::Counter cWrites("dse.checkpoint.writes");
        static const obs::Counter cUs("dse.checkpoint.write.us");
        static const obs::Counter cBytes("dse.checkpoint.write.bytes");
        const uint64_t us = obs::nowMicros() - t0;
        obs::recordSpan("dse", "checkpoint-write", t0, us);
        cWrites.add(1);
        cUs.add(us);
        cBytes.add(content.size());
    }
    return ok;
}

Status
loadCheckpointFile(const std::string& path, const Graph& g,
                   const CheckpointMeta& expect,
                   std::vector<DesignPoint>& points, DiagSink& sink,
                   CheckpointLoadStats* statsOut)
{
    CheckpointLoadStats ls;
    auto finish = [&] {
        if (statsOut)
            *statsOut = ls;
        if (obs::enabled()) {
            static const obs::Counter cLoads("dse.checkpoint.loads");
            static const obs::Counter cRest(
                "dse.checkpoint.restored");
            static const obs::Counter cTrunc(
                "dse.checkpoint.truncated");
            static const obs::Counter cCorr(
                "dse.checkpoint.corrupt");
            static const obs::Counter cStale(
                "dse.checkpoint.stale");
            cLoads.add(1);
            cRest.add(ls.restored);
            cTrunc.add(ls.truncated);
            cCorr.add(ls.corrupt);
            cStale.add(ls.stale);
        }
    };
    auto warn = [&](const std::string& msg) {
        Diag d;
        d.code = DiagCode::CheckpointIo;
        d.severity = DiagSeverity::Warning;
        d.stage = "checkpoint";
        d.message = msg;
        sink.report(d);
    };

    std::ifstream is(path, std::ios::binary);
    if (!is) {
        finish();
        Diag d;
        d.code = DiagCode::CheckpointIo;
        d.severity = DiagSeverity::Error;
        d.stage = "checkpoint";
        d.message = "checkpoint '" + path + "' not found";
        return Status::error(std::move(d));
    }

    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    if (lines.empty()) {
        finish();
        return mismatch(path, "file is empty");
    }

    if (lines[0] != kMagicV2) {
        finish();
        return mismatch(path, "unknown format");
    }

    // Header validation: every identity field must agree before a
    // single record is merged.
    unsigned long long seed = 0;
    unsigned long long design = 0, spaceHash = 0;
    size_t total = 0, nparams = 0;
    if (lines.size() < 2 ||
        std::sscanf(lines[1].c_str(),
                    "# design=%llx space=%llx seed=%llu total=%zu "
                    "nparams=%zu",
                    &design, &spaceHash, &seed, &total, &nparams) != 5) {
        finish();
        return mismatch(path, "malformed header");
    }
    std::string why;
    auto check = [&](bool same, const char* what) {
        if (!same)
            why += why.empty() ? what : (std::string(", ") + what);
    };
    check(design == expect.designHash, "design");
    check(spaceHash == expect.spaceHash, "parameter space");
    check(seed == expect.seed, "seed");
    check(total == expect.total, "sample count");
    check(nparams == expect.nparams, "parameter count");
    if (!why.empty()) {
        finish();
        return mismatch(path, "written by a different exploration (" +
                                  why + " mismatch)");
    }

    // A `# strategy=` header comment marks the round-tagged record
    // layout (one extra column before failreason). Comments run from
    // line 2 to the first data line.
    bool hasRound = false;
    for (size_t li = 2; li < lines.size(); ++li) {
        if (lines[li].empty() || lines[li][0] != '#')
            break;
        if (lines[li].rfind("# strategy=", 0) == 0)
            hasRound = true;
    }

    // Index of the last data line: a record that fails its CRC there
    // is a torn tail (truncate); anywhere else it is corruption.
    size_t lastData = lines.size();
    for (size_t i = lines.size(); i-- > 2;) {
        if (!lines[i].empty() && lines[i][0] != '#') {
            lastData = i;
            break;
        }
    }

    for (size_t li = 2; li < lines.size(); ++li) {
        const std::string& row = lines[li];
        if (row.empty() || row[0] == '#')
            continue;
        const bool isTail = li == lastData;
        auto damaged = [&] {
            (isTail ? ls.truncated : ls.corrupt)++;
        };

        const size_t comma = row.rfind(',');
        if (comma == std::string::npos) {
            damaged();
            continue;
        }
        const std::string payload = row.substr(0, comma);
        const std::string crcField = row.substr(comma + 1);
        if (crcField.size() != 8 ||
            crcField != hexDigits(crc32(payload), 8)) {
            damaged();
            continue;
        }
        // Payload fields: index, valid, failed, failcode, failstage,
        // alms..cycles, binding, [round,] failreason — the round
        // column only when strategy-tagged.
        const size_t ncommas = hasRound ? 13 : 12;
        auto f = splitFields(payload, ncommas);
        if (f.size() != ncommas + 1) {
            damaged();
            continue;
        }
        const size_t numAt = 5; // alms..cycles
        const size_t bindAt = numAt + 6;
        size_t idx = 0;
        try {
            idx = size_t(std::stoull(f[0]));
        } catch (const std::exception&) {
            damaged();
            continue;
        }
        if (idx >= points.size() || points[idx].evaluated) {
            ++ls.stale;
            continue;
        }
        DesignPoint& p = points[idx];
        // Guard against a stale file: the stored binding must match
        // the binding sampled at this index this run.
        std::istringstream bs(f[bindAt]);
        std::vector<int64_t> vals;
        int64_t v;
        while (bs >> v)
            vals.push_back(v);
        if (vals != p.binding.values) {
            ++ls.stale;
            continue;
        }
        try {
            p.valid = f[1] == "1";
            p.failed = f[2] == "1";
            p.failCode = diagCodeFromName(f[3]);
            p.area.alms = std::stod(f[numAt + 0]);
            p.area.luts = std::stod(f[numAt + 1]);
            p.area.regs = std::stod(f[numAt + 2]);
            p.area.dsps = std::stod(f[numAt + 3]);
            p.area.brams = std::stod(f[numAt + 4]);
            p.cycles = std::stod(f[numAt + 5]);
            p.round = hasRound ? int32_t(std::stol(f[bindAt + 1]))
                               : int32_t(-1);
        } catch (const std::exception&) {
            p = DesignPoint{};
            p.binding.values = std::move(vals);
            damaged();
            continue;
        }
        p.failStage = f[4];
        p.failReason = f[bindAt + (hasRound ? 2 : 1)];
        p.evaluated = true;
        ++ls.restored;
        if (p.failed) {
            // Re-surface the failure exactly as the live run
            // reported it, so failureSummary() and golden diag
            // renderings cover restored points identically.
            Diag d;
            d.code = p.failCode;
            d.severity = DiagSeverity::Error;
            d.stage = p.failStage.empty() ? "checkpoint"
                                          : p.failStage;
            d.message = p.failReason;
            d.pointIndex = int64_t(idx);
            d.context = renderBinding(g, p.binding);
            sink.report(d);
        }
    }

    if (ls.truncated > 0)
        warn("checkpoint '" + path + "': torn tail, " +
             std::to_string(ls.truncated) +
             " partial record(s) truncated");
    if (ls.corrupt > 0)
        warn("checkpoint '" + path + "': " +
             std::to_string(ls.corrupt) +
             " corrupt record(s) skipped");
    if (ls.stale > 0)
        warn("checkpoint '" + path + "': " +
             std::to_string(ls.stale) +
             " stale record(s) ignored");
    finish();
    return Status();
}

} // namespace dhdl::dse

/**
 * @file
 * Table 3 reproduction: BOdiagsuite detection results.
 *
 * Runs all 291 overflow cases at the three magnitudes under the three
 * protection regimes and reports the detection matrix beside the
 * paper's values, plus the real-bug gallery (section 5.4 bug classes).
 */

#include "bench_util.h"
#include "bodiag/suite.h"

using namespace cheri;
using namespace cheri::bodiag;

int
main(int argc, char **argv)
{
    bench::Report rep("table3_bodiag", "Table 3: BOdiagsuite detections",
                      argc, argv);
    auto suite = generateSuite();
    const u64 cases = suite.size();
    rep.metric("cases", "overflow cases", cases);

    bench::Report::Table &t = rep.table(
        "detections", "Detections per magnitude (with the paper's)",
        {"regime", "min", "med", "large", "ok_failures", "paper_min",
         "paper_med", "paper_large"});
    struct Regime
    {
        Mode mode;
        u64 min, med, large; // the paper's
    };
    const Regime regimes[] = {
        {Mode::Mips64, 4, 8, 175},
        {Mode::CheriAbi, 279, 289, 291},
        {Mode::Asan, 276, 286, 286},
    };
    u64 okFailures = 0;
    for (const Regime &g : regimes) {
        ModeSummary s = runAll(suite, g.mode);
        t.row({std::string(modeName(g.mode)), s.min, s.med, s.large,
               s.okFailures, g.min, g.med, g.large});
        okFailures += s.okFailures;
        bool asPaper = s.min == g.min && s.med == g.med && s.large == g.large;
        if (g.mode == Mode::Mips64)
            rep.require("mips64_min_under_5pct", 100.0 * s.min < 5.0 * cases);
        if (g.mode == Mode::CheriAbi) {
            rep.require("cheriabi_as_paper", asPaper);
            rep.atLeast("cheriabi_large", s.large, cases);
        }
        if (g.mode == Mode::Asan)
            rep.require("asan_as_paper", asPaper);
    }
    // An overflow reported on a correct access is a wrong result.
    rep.atMost("ok_failures", okFailures, 0, bench::Report::Enforce::Always);

    struct GalleryEntry
    {
        const char *bug;
        BodiagCase c;
        Magnitude mag;
    };
    const GalleryEntry gallery[] = {
        {"tcsh history-expansion underrun read",
         {0, Region::Heap, AccessKind::Read, Technique::PtrArith, 16},
         Magnitude::Min},
        {"DHCP client under-allocated ioctl buffer",
         {0, Region::Heap, AccessKind::Write, Technique::PosixGetcwd,
          12},
         Magnitude::Med},
        {"ttyname small buffer overflow",
         {0, Region::Global, AccessKind::Write, Technique::LibcStrcpy,
          32},
         Magnitude::Min},
        {"humanize_number overflow",
         {0, Region::Stack, AccessKind::Write, Technique::LibcMemcpy,
          16},
         Magnitude::Min},
        {"strvis test-case overflow",
         {0, Region::Stack, AccessKind::Write, Technique::LoopIndex,
          64},
         Magnitude::Min},
    };
    bench::Report::Table &bugs =
        rep.table("gallery", "Real-bug gallery (paper section 5.4 bug "
                             "classes): caught?",
                  {"bug", "mips64", "cheriabi", "asan"});
    bool mipsCatchesNone = true;
    bool cheriCatchesAll = true;
    for (const GalleryEntry &g : gallery) {
        auto caught = [&](Mode m) { return runCase(g.c, g.mag, m).detected; };
        bool mips = caught(Mode::Mips64);
        bool cheri = caught(Mode::CheriAbi);
        bugs.row({std::string(g.bug), mips, cheri, caught(Mode::Asan)});
        mipsCatchesNone &= !mips;
        cheriCatchesAll &= cheri;
    }
    rep.require("gallery_cheriabi_catches_all", cheriCatchesAll);
    rep.require("gallery_mips64_catches_none", mipsCatchesNone);
    return rep.finish();
}

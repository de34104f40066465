// Layer replay: each layer's public functions called directly on the
// workload's own step shapes, outside any workflow, so a change to one
// layer shows up in that layer's number even when the end-to-end metrics
// cannot resolve it.
#pragma once

#include <filesystem>
#include <map>
#include <string>

#include "oracle.hpp"
#include "workloads.hpp"

namespace pb {

/// One replayed measurement, with its unit and how it was obtained.
struct LayerValue {
    double value = 0.0;
    std::string unit;
    std::string note;  // e.g. "computed, not measured" or "warm: steps 1..5"
};

/// Replays flexpath reads (cold and warm), ffs meta/block codecs, the
/// kernels (ns/element plus computed ops and bytes per element), durable
/// append/load, lint analysis, and fusion planning on `w`'s shapes.
/// Scratch files go under `dir`, which is removed afterwards.
std::map<std::string, LayerValue> replay_layers(const Workload& w, const Field& field,
                                                std::uint64_t seed,
                                                const std::filesystem::path& dir);

}  // namespace pb

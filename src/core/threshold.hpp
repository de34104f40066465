// The Threshold component.
//
//   threshold input-stream-name input-array-name above|below|band lo [hi]
//             output-stream-name output-array-name
//
// Filters a one-dimensional array by value, emitting only the passing
// elements ("above lo", "below lo", or "band lo hi" inclusive).  Unlike the
// shape-preserving components its output length varies per step: the ranks
// filter their partitions locally and agree on the global layout with one
// allgather of counts, so the output is again a dense 1-D array any
// downstream component can consume.  The pass count also rides on the
// stream as the attribute "<output-array>.count".
#pragma once

#include "core/component.hpp"
#include "core/kernels.hpp"

namespace sb::core {

/// The predicate lives in the kernel layer (scalar and vectorized compaction
/// share it); ThresholdMode keeps the historical component-level name.
using ThresholdMode = kernels::ThresholdOp;

ThresholdMode parse_threshold_mode(const std::string& s);

class Threshold : public Component {
public:
    std::string name() const override { return "threshold"; }
    std::string usage() const override {
        return "threshold input-stream-name input-array-name above|below|band "
               "lo [hi] output-stream-name output-array-name";
    }
    std::optional<FusedStage> stage(const util::ArgList& args) const override;
    Contract contract(const util::ArgList& args) const override {
        Contract c = stage_contract(*stage(args));
        c.inputs.front().exact_rank = 1;
        c.inputs.front().needs_float64 = true;
        c.outputs.front().rule = OutputContract::Shape::Filter1D;
        c.outputs.front().kind = OutputContract::Kind::Float64;
        return c;
    }
};

}  // namespace sb::core

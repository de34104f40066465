// The Magnitude component (paper §III.D).
//
//   magnitude input-stream-name input-array-name
//             output-stream-name output-array-name
//
// Computes the Euclidean magnitude of an array of vectors: the input is a
// two-dimensional array where the first dimension spans the data points
// (particles, atoms, ...) and the second spans the components of each
// point's vector; the output is the one-dimensional array of magnitudes.
// Because it always operates on 2-D data, it takes only the stream/array
// names as parameters.
#pragma once

#include "core/component.hpp"

namespace sb::core {

class Magnitude : public Component {
public:
    std::string name() const override { return "magnitude"; }
    std::string usage() const override {
        return "magnitude input-stream-name input-array-name "
               "output-stream-name output-array-name";
    }
    std::optional<FusedStage> stage(const util::ArgList& args) const override;
    Contract contract(const util::ArgList& args) const override {
        Contract c = stage_contract(*stage(args));
        c.inputs.front().exact_rank = 2;  // points x vector components, always
        c.inputs.front().needs_float64 = true;
        c.outputs.front().rule = OutputContract::Shape::Collapse2Dto1D;
        c.outputs.front().kind = OutputContract::Kind::Float64;
        return c;
    }
};

}  // namespace sb::core

#include "core/threshold.hpp"

namespace sb::core {

ThresholdMode parse_threshold_mode(const std::string& s) {
    if (s == "above") return ThresholdMode::Above;
    if (s == "below") return ThresholdMode::Below;
    if (s == "band") return ThresholdMode::Band;
    throw util::ArgError("threshold: mode must be above|below|band, got '" + s + "'");
}

std::optional<FusedStage> Threshold::stage(const util::ArgList& args) const {
    args.require_at_least(6, usage());
    FusedStage st;
    st.kind = FusedStage::Kind::Threshold;
    st.component = name();
    st.in_stream = args.str(0, "input-stream-name");
    st.in_array = args.str(1, "input-array-name");
    const std::string& mode = args.str(2, "mode");
    st.tmode = stage_arg(st, [&] { return parse_threshold_mode(mode); });
    st.lo = stage_arg(st, [&] { return args.real(3, "lo"); });
    const bool band = mode == "band";
    if (band) {
        args.require_at_least(7, usage());
        st.hi = stage_arg(st, [&] { return args.real(4, "hi"); });
        if (st.arg_errors.empty() && st.hi < st.lo) {
            st.arg_errors.emplace_back("threshold: band requires lo <= hi");
        }
    }
    st.out_stream = args.str(band ? 5 : 4, "output-stream-name");
    st.out_array = args.str(band ? 6 : 5, "output-array-name");
    return st;
}

}  // namespace sb::core

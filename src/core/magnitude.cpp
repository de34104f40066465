#include "core/magnitude.hpp"

namespace sb::core {

std::optional<FusedStage> Magnitude::stage(const util::ArgList& args) const {
    args.require_at_least(4, usage());
    FusedStage st;
    st.kind = FusedStage::Kind::Magnitude;
    st.component = name();
    st.in_stream = args.str(0, "input-stream-name");
    st.in_array = args.str(1, "input-array-name");
    st.out_stream = args.str(2, "output-stream-name");
    st.out_array = args.str(3, "output-array-name");
    return st;
}

}  // namespace sb::core

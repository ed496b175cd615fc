#include "arch/fusion.hpp"

#include <vector>

namespace fcad::arch {

std::vector<int> FusedGraph::consumers(int s) const {
  std::vector<int> out;
  for (std::size_t t = 0; t < stage_inputs.size(); ++t) {
    for (int in : stage_inputs[t]) {
      if (in == s) {
        out.push_back(static_cast<int>(t));
        break;
      }
    }
  }
  return out;
}

namespace {

bool is_major(const nn::Layer& layer) {
  return layer.kind == nn::LayerKind::kConv2d ||
         layer.kind == nn::LayerKind::kDense;
}

bool is_foldable_postop(const nn::Layer& layer) {
  return layer.kind == nn::LayerKind::kActivation ||
         layer.kind == nn::LayerKind::kUpsample2x ||
         layer.kind == nn::LayerKind::kMaxPool;
}

bool is_structural(const nn::Layer& layer) {
  return layer.kind == nn::LayerKind::kInput ||
         layer.kind == nn::LayerKind::kReshape ||
         layer.kind == nn::LayerKind::kConcat ||
         layer.kind == nn::LayerKind::kOutput;
}

}  // namespace

StatusOr<FusedGraph> fuse(const nn::Graph& graph,
                          const analysis::GraphProfile& profile) {
  FCAD_CHECK(profile.layers.size() == graph.size());
  FusedGraph fg;

  // layer id (0..n-1) -> stage index currently producing that layer's
  // value. Structural layers map to the stage of their (first) input, or -1
  // when the value comes straight from network inputs; kUnset marks a layer
  // not yet visited.
  constexpr int kUnset = -2;
  std::vector<int> producer(graph.size(), kUnset);
  const auto producer_of = [&](nn::LayerId id) {
    FCAD_CHECK(id >= 0 && static_cast<std::size_t>(id) < producer.size());
    const int p = producer[static_cast<std::size_t>(id)];
    FCAD_CHECK(p != kUnset);
    return p;
  };

  for (const nn::Layer& layer : graph.layers()) {
    const analysis::LayerProfile& lp =
        profile.layers[static_cast<std::size_t>(layer.id)];
    int& own = producer[static_cast<std::size_t>(layer.id)];

    if (is_structural(layer)) {
      if (layer.kind == nn::LayerKind::kInput) {
        own = -1;
      } else if (layer.kind == nn::LayerKind::kConcat) {
        // All concat inputs must come from network inputs (concatenating two
        // intermediate streams would need a join unit the elastic
        // architecture does not define).
        int p = -1;
        for (nn::LayerId in : layer.inputs) {
          const int q = producer_of(in);
          if (q != -1) {
            if (p != -1 && p != q) {
              return Status::invalid_argument(
                  "fuse: concat '" + layer.name +
                  "' joins two intermediate streams; unsupported");
            }
            p = q;
          }
        }
        own = p;
      } else {
        // Reshape / Output inherit their input's producer.
        own = producer_of(layer.inputs[0]);
      }
      continue;
    }

    if (is_major(layer)) {
      FusedStage st;
      st.major = layer.id;
      st.name = layer.name;
      st.source_layers = {layer.id};
      const nn::Layer& in = graph.layer(layer.inputs[0]);
      if (layer.kind == nn::LayerKind::kConv2d) {
        const auto& a = layer.conv();
        st.kind = FusedStage::Kind::kConv;
        st.in_ch = in.out_shape.ch;
        st.out_ch = a.out_ch;
        st.kernel = a.kernel;
        st.stride = a.stride;
        st.in_h = in.out_shape.h;
        st.in_w = in.out_shape.w;
        st.untied_bias = a.untied_bias;
        st.has_bias = a.bias;
      } else {
        const auto& a = layer.dense();
        st.kind = FusedStage::Kind::kDense;
        st.in_ch = static_cast<int>(in.out_shape.elems());
        st.out_ch = a.out_features;
        st.kernel = 1;
        st.stride = 1;
        st.in_h = st.in_w = 1;
        st.has_bias = a.bias;
      }
      st.out_h = layer.out_shape.h;
      st.out_w = layer.out_shape.w;
      st.final_ch = layer.out_shape.ch;
      st.final_h = st.out_h;
      st.final_w = st.out_w;
      st.macs = lp.macs;
      st.ops = lp.ops;
      st.weight_params = lp.weight_params;
      st.bias_params = lp.bias_params;

      const int idx = static_cast<int>(fg.stages.size());
      fg.stages.push_back(std::move(st));
      fg.stage_inputs.emplace_back();
      const int p = producer_of(layer.inputs[0]);
      if (p != -1) fg.stage_inputs.back().push_back(p);
      own = idx;
      continue;
    }

    FCAD_CHECK(is_foldable_postop(layer));
    const nn::LayerId in_id = layer.inputs[0];
    const int p = producer_of(in_id);
    if (p == -1) {
      return Status::invalid_argument(
          "fuse: post-op '" + layer.name +
          "' has no major layer to fold into (applied to a network input)");
    }
    // The folded-over intermediate must have no other consumer; otherwise
    // fusing would change the other consumer's view of the value.
    if (graph.consumers(in_id).size() != 1) {
      return Status::invalid_argument(
          "fuse: cannot fold '" + layer.name +
          "': its input fans out to other consumers");
    }
    FusedStage& st = fg.stages[static_cast<std::size_t>(p)];
    st.source_layers.push_back(layer.id);
    st.ops += lp.ops;
    st.macs += lp.macs;
    switch (layer.kind) {
      case nn::LayerKind::kActivation:
        st.has_activation = true;
        break;
      case nn::LayerKind::kUpsample2x:
        st.has_upsample = true;
        break;
      case nn::LayerKind::kMaxPool:
        st.has_pool = true;
        break;
      default:
        break;
    }
    st.final_ch = layer.out_shape.ch;
    st.final_h = layer.out_shape.h;
    st.final_w = layer.out_shape.w;
    own = p;
  }

  // Map graph outputs to stages.
  for (nn::LayerId out : graph.output_ids()) {
    const int p = producer_of(out);
    if (p == -1) {
      return Status::invalid_argument(
          "fuse: output '" + graph.layer(out).name +
          "' is fed directly by a network input; nothing to accelerate");
    }
    fg.output_stages.push_back(p);
  }
  fg.stage_outputs.assign(fg.stages.size(), {});
  for (std::size_t o = 0; o < fg.output_stages.size(); ++o) {
    fg.stage_outputs[static_cast<std::size_t>(fg.output_stages[o])].push_back(
        static_cast<int>(o));
  }
  return fg;
}

}  // namespace fcad::arch

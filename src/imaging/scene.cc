#include "imaging/scene.h"

#include <algorithm>
#include <cmath>

#include "imaging/ops.h"
#include "util/fnv.h"
#include "util/logging.h"

namespace phocus {

Rgb HsvToRgb(float h, float s, float v) {
  h = std::fmod(h, 360.0f);
  if (h < 0.0f) h += 360.0f;
  s = std::clamp(s, 0.0f, 1.0f);
  v = std::clamp(v, 0.0f, 1.0f);
  const float c = v * s;
  const float hp = h / 60.0f;
  const float x = c * (1.0f - std::abs(std::fmod(hp, 2.0f) - 1.0f));
  float r = 0, g = 0, b = 0;
  if (hp < 1) { r = c; g = x; }
  else if (hp < 2) { r = x; g = c; }
  else if (hp < 3) { g = c; b = x; }
  else if (hp < 4) { g = x; b = c; }
  else if (hp < 5) { r = x; b = c; }
  else { r = c; b = x; }
  const float m = v - c;
  auto to8 = [&](float f) {
    return static_cast<std::uint8_t>(std::clamp((f + m) * 255.0f + 0.5f, 0.0f, 255.0f));
  };
  return Rgb{to8(r), to8(g), to8(b)};
}

SceneStyle StyleForCategory(const std::string& category) {
  // Hash the name into a deterministic style seed.
  Rng rng(Fnv1a64(category, kFnv64TruncatedBasis));
  SceneStyle style;
  style.category = category;
  style.base_hue = static_cast<float>(rng.Uniform(0.0, 360.0));
  style.hue_spread = static_cast<float>(rng.Uniform(15.0, 55.0));
  style.texture_amount = static_cast<float>(rng.Uniform(0.05, 0.5));
  style.min_shapes = static_cast<int>(rng.UniformInt(2, 3));
  style.max_shapes = style.min_shapes + static_cast<int>(rng.UniformInt(1, 4));
  // Each category favours a subset of 2-3 shape kinds.
  std::vector<SceneShape::Kind> all = {
      SceneShape::Kind::kCircle, SceneShape::Kind::kRectangle,
      SceneShape::Kind::kTriangle, SceneShape::Kind::kRing,
      SceneShape::Kind::kStripe};
  rng.Shuffle(all);
  const std::size_t vocabulary_size = 2 + rng.NextBelow(2);
  style.shape_vocabulary.assign(all.begin(), all.begin() + vocabulary_size);
  return style;
}

SceneParams SampleScene(const SceneStyle& style, Rng& rng) {
  PHOCUS_CHECK(!style.shape_vocabulary.empty(), "style has no shape vocabulary");
  SceneParams params;
  const float hue0 =
      style.base_hue + static_cast<float>(rng.Uniform(-style.hue_spread, style.hue_spread));
  params.background_top =
      HsvToRgb(hue0, static_cast<float>(rng.Uniform(0.15, 0.45)),
               static_cast<float>(rng.Uniform(0.55, 0.95)));
  params.background_bottom =
      HsvToRgb(hue0 + static_cast<float>(rng.Uniform(-20.0, 20.0)),
               static_cast<float>(rng.Uniform(0.2, 0.5)),
               static_cast<float>(rng.Uniform(0.3, 0.7)));
  const int num_shapes =
      static_cast<int>(rng.UniformInt(style.min_shapes, style.max_shapes));
  for (int i = 0; i < num_shapes; ++i) {
    SceneShape shape;
    shape.kind = style.shape_vocabulary[rng.NextBelow(style.shape_vocabulary.size())];
    shape.center_x = static_cast<float>(rng.Uniform(0.15, 0.85));
    shape.center_y = static_cast<float>(rng.Uniform(0.15, 0.85));
    shape.size = static_cast<float>(rng.Uniform(0.08, 0.32));
    shape.angle = static_cast<float>(rng.Uniform(0.0, M_PI));
    shape.color = HsvToRgb(
        style.base_hue + static_cast<float>(rng.Uniform(-style.hue_spread, style.hue_spread)),
        static_cast<float>(rng.Uniform(0.5, 1.0)),
        static_cast<float>(rng.Uniform(0.4, 1.0)));
    params.shapes.push_back(shape);
  }
  params.noise_sigma =
      static_cast<float>(rng.Uniform(1.0, 2.0 + 8.0 * style.texture_amount));
  params.blur_sigma = rng.Bernoulli(0.2)
                          ? static_cast<float>(rng.Uniform(0.6, 1.8))
                          : 0.0f;
  params.brightness = static_cast<float>(rng.Uniform(0.75, 1.2));
  params.noise_seed = rng.Next();
  return params;
}

SceneParams JitterScene(const SceneParams& params, Rng& rng, double amount) {
  PHOCUS_CHECK(amount >= 0.0 && amount <= 1.0, "jitter amount must be in [0,1]");
  SceneParams out = params;
  const float a = static_cast<float>(amount);
  auto jitter_color = [&](Rgb c) {
    auto bump = [&](std::uint8_t v) {
      const float delta = static_cast<float>(rng.Normal(0.0, 18.0 * a));
      return static_cast<std::uint8_t>(std::clamp(v + delta, 0.0f, 255.0f));
    };
    return Rgb{bump(c.r), bump(c.g), bump(c.b)};
  };
  out.background_top = jitter_color(out.background_top);
  out.background_bottom = jitter_color(out.background_bottom);
  for (SceneShape& shape : out.shapes) {
    shape.center_x = std::clamp(
        shape.center_x + static_cast<float>(rng.Normal(0.0, 0.05 * a)), 0.0f, 1.0f);
    shape.center_y = std::clamp(
        shape.center_y + static_cast<float>(rng.Normal(0.0, 0.05 * a)), 0.0f, 1.0f);
    shape.size = std::clamp(
        shape.size * (1.0f + static_cast<float>(rng.Normal(0.0, 0.1 * a))),
        0.02f, 0.5f);
    shape.angle += static_cast<float>(rng.Normal(0.0, 0.2 * a));
    shape.color = jitter_color(shape.color);
  }
  out.brightness = std::clamp(
      out.brightness * (1.0f + static_cast<float>(rng.Normal(0.0, 0.08 * a))),
      0.4f, 1.6f);
  out.noise_seed = rng.Next();  // fresh sensor noise, like a re-shot frame
  return out;
}

namespace {

/// Signed distance-ish inclusion test for a shape at normalized point (u,v).
bool InsideShape(const SceneShape& shape, float u, float v) {
  // Rotate into the shape frame.
  const float du = u - shape.center_x;
  const float dv = v - shape.center_y;
  const float ca = std::cos(-shape.angle);
  const float sa = std::sin(-shape.angle);
  const float x = du * ca - dv * sa;
  const float y = du * sa + dv * ca;
  const float s = shape.size;
  switch (shape.kind) {
    case SceneShape::Kind::kCircle:
      return x * x + y * y <= s * s;
    case SceneShape::Kind::kRectangle:
      return std::abs(x) <= s && std::abs(y) <= 0.62f * s;
    case SceneShape::Kind::kTriangle: {
      // Upward triangle with apex at (0, -s) and base at y = s/2.
      if (y < -s || y > 0.5f * s) return false;
      const float half_width = 0.75f * (y + s) / 1.5f;
      return std::abs(x) <= half_width;
    }
    case SceneShape::Kind::kRing: {
      const float r2 = x * x + y * y;
      const float outer = s;
      const float inner = 0.6f * s;
      return r2 <= outer * outer && r2 >= inner * inner;
    }
    case SceneShape::Kind::kStripe:
      return std::abs(y) <= 0.18f * s;
  }
  return false;
}

}  // namespace

Image RenderScene(const SceneParams& params, int width, int height) {
  PHOCUS_CHECK(width > 0 && height > 0, "bad render dimensions");
  Image image(width, height);
  // Background vertical gradient.
  for (int y = 0; y < height; ++y) {
    const float t = height > 1 ? static_cast<float>(y) / (height - 1) : 0.0f;
    auto blend = [&](std::uint8_t a, std::uint8_t b) {
      return static_cast<std::uint8_t>(a + t * (b - a));
    };
    const Rgb row{blend(params.background_top.r, params.background_bottom.r),
                  blend(params.background_top.g, params.background_bottom.g),
                  blend(params.background_top.b, params.background_bottom.b)};
    for (int x = 0; x < width; ++x) image.At(x, y) = row;
  }
  // Shapes, painter's order.
  for (const SceneShape& shape : params.shapes) {
    for (int y = 0; y < height; ++y) {
      const float v = (y + 0.5f) / height;
      for (int x = 0; x < width; ++x) {
        const float u = (x + 0.5f) / width;
        if (InsideShape(shape, u, v)) image.At(x, y) = shape.color;
      }
    }
  }
  // Exposure + sensor noise (deterministic from noise_seed).
  Rng noise(params.noise_seed);
  for (Rgb& p : image.pixels()) {
    auto apply = [&](std::uint8_t channel) {
      float value = channel * params.brightness;
      if (params.noise_sigma > 0.0f) {
        value += static_cast<float>(noise.Normal(0.0, params.noise_sigma));
      }
      return static_cast<std::uint8_t>(std::clamp(value, 0.0f, 255.0f));
    };
    p = Rgb{apply(p.r), apply(p.g), apply(p.b)};
  }
  // Optional defocus blur applied per channel.
  if (params.blur_sigma > 0.0f) {
    Plane r(width, height), g(width, height), b(width, height);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        const Rgb p = image.At(x, y);
        r.At(x, y) = p.r;
        g.At(x, y) = p.g;
        b.At(x, y) = p.b;
      }
    }
    r = GaussianBlur(r, params.blur_sigma);
    g = GaussianBlur(g, params.blur_sigma);
    b = GaussianBlur(b, params.blur_sigma);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        auto to8 = [](float f) {
          return static_cast<std::uint8_t>(std::clamp(f + 0.5f, 0.0f, 255.0f));
        };
        image.At(x, y) = Rgb{to8(r.At(x, y)), to8(g.At(x, y)), to8(b.At(x, y))};
      }
    }
  }
  return image;
}

}  // namespace phocus

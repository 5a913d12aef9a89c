#include "datagen/vocabulary.h"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "util/logging.h"

namespace phocus {

namespace {

constexpr std::array<const char*, 60> kSeedNouns = {
    "cat",        "dog",      "bicycle",  "car",       "tree",     "flower",
    "bird",       "house",    "mountain", "beach",     "bridge",   "boat",
    "train",      "airplane", "guitar",   "piano",     "book",     "bookshelf",
    "chair",      "table",    "lamp",     "clock",     "bottle",   "cup",
    "plate",      "fruit",    "cake",     "pizza",     "sandwich", "salad",
    "shirt",      "dress",    "shoe",     "hat",       "bag",      "watch",
    "phone",      "laptop",   "camera",   "television","horse",    "cow",
    "sheep",      "fish",     "butterfly","spider",    "snow",     "river",
    "waterfall",  "castle",   "statue",   "fountain",  "garden",   "street",
    "market",     "museum",   "stadium",  "festival",  "sunset",   "portrait"};

constexpr std::array<const char*, 24> kAdjectives = {
    "red",     "blue",    "green",   "yellow", "black",  "white",
    "striped", "spotted", "vintage", "modern", "rustic", "shiny",
    "wooden",  "metal",   "glass",   "small",  "large",  "tiny",
    "giant",   "bright",  "dark",    "pale",   "curved", "angular"};

constexpr std::array<const char*, 20> kSuffixNouns = {
    "kettle",  "vase",   "mirror", "carpet", "pillow",  "blanket", "basket",
    "ladder",  "bucket", "fence",  "gate",   "window",  "door",    "roof",
    "tower",   "tent",   "canoe",  "sled",   "wagon",   "bench"};

// The tiers in enumeration order; each index decodes to one combination by
// mixed-radix arithmetic, with repeated adjectives skipped.
constexpr std::size_t kNouns = kSeedNouns.size();
constexpr std::size_t kAdjs = kAdjectives.size();
constexpr std::size_t kSuffixes = kSuffixNouns.size();
constexpr std::size_t kAdjNounTier = kAdjs * kNouns;
constexpr std::size_t kAdjSuffixTier = kAdjs * kSuffixes;
constexpr std::size_t kTwoAdjTier = kAdjs * (kAdjs - 1) * (kNouns + kSuffixes);
constexpr std::size_t kThreeAdjTier =
    kAdjs * (kAdjs - 1) * (kAdjs - 2) * kNouns;
static_assert(kNouns + kAdjNounTier + kAdjSuffixTier + kTwoAdjTier +
                      kThreeAdjTier ==
                  kLabelVocabularyCapacity,
              "kLabelVocabularyCapacity must match the word lists");

std::string Join(std::initializer_list<const char*> words) {
  std::string out;
  for (const char* word : words) {
    if (!out.empty()) out += ' ';
    out += word;
  }
  return out;
}

}  // namespace

std::string LabelName(std::size_t index) {
  PHOCUS_CHECK(index < kLabelVocabularyCapacity,
               "label index past the vocabulary capacity");
  if (index < kNouns) return kSeedNouns[index];
  index -= kNouns;
  if (index < kAdjNounTier) {
    return Join({kAdjectives[index / kNouns], kSeedNouns[index % kNouns]});
  }
  index -= kAdjNounTier;
  if (index < kAdjSuffixTier) {
    return Join(
        {kAdjectives[index / kSuffixes], kSuffixNouns[index % kSuffixes]});
  }
  index -= kAdjSuffixTier;
  if (index < kTwoAdjTier) {
    // first × (second ≠ first) × (seed nouns, then suffix nouns).
    const std::size_t noun = index % (kNouns + kSuffixes);
    const std::size_t pair = index / (kNouns + kSuffixes);
    const std::size_t first = pair / (kAdjs - 1);
    std::size_t second = pair % (kAdjs - 1);
    if (second >= first) ++second;
    return Join({kAdjectives[first], kAdjectives[second],
                 noun < kNouns ? kSeedNouns[noun]
                               : kSuffixNouns[noun - kNouns]});
  }
  index -= kTwoAdjTier;
  // first × (second ≠ first) × (third ∉ {first, second}) × seed noun.
  const std::size_t noun = index % kNouns;
  const std::size_t triple = index / kNouns;
  const std::size_t first = triple / ((kAdjs - 1) * (kAdjs - 2));
  std::size_t second = triple / (kAdjs - 2) % (kAdjs - 1);
  std::size_t third = triple % (kAdjs - 2);
  if (second >= first) ++second;
  if (third >= std::min(first, second)) ++third;
  if (third >= std::max(first, second)) ++third;
  return Join({kAdjectives[first], kAdjectives[second], kAdjectives[third],
               kSeedNouns[noun]});
}

std::string EcDomainName(EcDomain domain) {
  switch (domain) {
    case EcDomain::kFashion: return "Fashion";
    case EcDomain::kElectronics: return "Electronics";
    case EcDomain::kHomeGarden: return "Home & Garden";
  }
  return "?";
}

const EcVocabulary& VocabularyFor(EcDomain domain) {
  static const EcVocabulary fashion = {
      /*product_types=*/{"shirt", "t-shirt", "dress", "jeans", "skirt",
                         "jacket", "coat", "sweater", "hoodie", "shorts",
                         "sneakers", "boots", "sandals", "heels", "scarf",
                         "hat", "belt", "handbag", "backpack", "socks",
                         "polo shirt", "dress shirt", "leggings", "blazer"},
      /*brands=*/{"adidas", "nike", "puma", "zara", "levis", "gap", "uniqlo",
                  "gucci", "prada", "columbia", "reebok", "lacoste"},
      /*colors=*/{"black", "white", "red", "blue", "green", "grey", "navy",
                  "beige", "pink", "brown"},
      /*attributes=*/{"buttoned", "slim fit", "oversized", "waterproof",
                      "cotton", "leather", "wool", "denim", "striped",
                      "floral"},
      /*audiences=*/{"women's", "men's", "kids", "unisex"}};
  static const EcVocabulary electronics = {
      /*product_types=*/{"smartphone", "laptop", "tablet", "headphones",
                         "earbuds", "smartwatch", "camera", "monitor",
                         "keyboard", "mouse", "router", "speaker",
                         "television", "drone", "charger", "power bank",
                         "game console", "printer", "hard drive", "webcam",
                         "microphone", "projector", "e-reader", "soundbar"},
      /*brands=*/{"samsung", "apple", "sony", "lg", "dell", "hp", "lenovo",
                  "asus", "logitech", "canon", "nikon", "bose"},
      /*colors=*/{"black", "white", "silver", "space grey", "gold", "blue",
                  "red", "graphite"},
      /*attributes=*/{"wireless", "bluetooth", "4k", "gaming", "portable",
                      "noise cancelling", "touchscreen", "ultra slim",
                      "fast charging", "refurbished"},
      /*audiences=*/{"pro", "home", "office", "travel"}};
  static const EcVocabulary home_garden = {
      /*product_types=*/{"office chair", "sofa", "dining table", "bookshelf",
                         "bed frame", "mattress", "desk", "wardrobe", "rug",
                         "curtains", "lamp", "mirror", "garden hose",
                         "lawn mower", "grill", "planter", "patio set",
                         "toolbox", "ladder", "vacuum cleaner", "kettle",
                         "cookware set", "blender", "coffee maker"},
      /*brands=*/{"ikea", "ashley", "wayfair", "dyson", "bosch", "philips",
                  "kitchenaid", "weber", "makita", "dewalt", "tefal",
                  "keurig"},
      /*colors=*/{"white", "black", "oak", "walnut", "grey", "beige", "green",
                  "terracotta"},
      /*attributes=*/{"ergonomic", "foldable", "outdoor", "indoor", "cordless",
                      "stainless steel", "ceramic", "adjustable", "compact",
                      "heavy duty"},
      /*audiences=*/{"family", "studio", "patio", "kitchen"}};
  switch (domain) {
    case EcDomain::kFashion: return fashion;
    case EcDomain::kElectronics: return electronics;
    case EcDomain::kHomeGarden: return home_garden;
  }
  return fashion;
}

}  // namespace phocus

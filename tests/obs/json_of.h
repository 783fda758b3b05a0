// Renders one report section that writes itself through
// util::JsonWriter (obs::Registry, obs::TimeSeries, obs::SloReport) as
// a standalone JSON document: the bytes farm::to_json nests for it.
#pragma once

#include <string>

#include "util/json.h"

namespace qosctrl::obs {

template <class Section>
std::string json_of(const Section& section) {
  util::JsonWriter w;
  section.write_json(w);
  return w.take();
}

}  // namespace qosctrl::obs

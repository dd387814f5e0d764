#include "hw/group.h"

#include <algorithm>

#include "util/error.h"

namespace accpar::hw {

AcceleratorGroup::AcceleratorGroup(const AcceleratorSpec &spec, int count)
{
    ACCPAR_REQUIRE(count >= 1, "group needs at least one board");
    spec.validate();
    _slices.push_back(GroupSlice{spec, count});
}

AcceleratorGroup::AcceleratorGroup(std::vector<GroupSlice> slices)
{
    for (const GroupSlice &s : slices) {
        ACCPAR_REQUIRE(s.count >= 1, "group slice count must be positive");
        s.spec.validate();
        bool merged = false;
        for (GroupSlice &existing : _slices) {
            if (existing.spec.name == s.spec.name) {
                ACCPAR_REQUIRE(existing.spec == s.spec,
                               "two different specs share the name "
                                   << s.spec.name);
                existing.count += s.count;
                merged = true;
                break;
            }
        }
        if (!merged)
            _slices.push_back(s);
    }
    ACCPAR_REQUIRE(!_slices.empty(), "group cannot be empty");
}

int
AcceleratorGroup::size() const
{
    int total = 0;
    for (const GroupSlice &s : _slices)
        total += s.count;
    return total;
}

util::FlopsPerSecond
AcceleratorGroup::computeDensity() const
{
    util::FlopsPerSecond total = 0.0;
    for (const GroupSlice &s : _slices)
        total += s.count * s.spec.computeDensity;
    return total;
}

util::BytesPerSecond
AcceleratorGroup::linkBandwidth() const
{
    if (_aggregation == LinkAggregation::SingleLink) {
        util::BytesPerSecond slowest = _slices.front().spec.linkBandwidth;
        for (const GroupSlice &s : _slices)
            slowest = std::min(slowest, s.spec.linkBandwidth);
        return slowest;
    }
    util::BytesPerSecond total = 0.0;
    for (const GroupSlice &s : _slices)
        total += s.count * s.spec.linkBandwidth;
    return total;
}

void
AcceleratorGroup::setLinkAggregation(LinkAggregation aggregation)
{
    _aggregation = aggregation;
}

util::BytesPerSecond
AcceleratorGroup::memoryBandwidth() const
{
    util::BytesPerSecond total = 0.0;
    for (const GroupSlice &s : _slices)
        total += s.count * s.spec.memoryBandwidth;
    return total;
}

util::Bytes
AcceleratorGroup::memoryCapacity() const
{
    util::Bytes total = 0.0;
    for (const GroupSlice &s : _slices)
        total += s.count * s.spec.memoryCapacity;
    return total;
}

std::pair<AcceleratorGroup, AcceleratorGroup>
AcceleratorGroup::split() const
{
    ACCPAR_REQUIRE(size() >= 2, "cannot split a group of size "
                                    << size());
    if (!homogeneous()) {
        // Split by board type: first slice vs the remaining slices.
        AcceleratorGroup left(_slices.front().spec, _slices.front().count);
        AcceleratorGroup right(std::vector<GroupSlice>(
            _slices.begin() + 1, _slices.end()));
        left._aggregation = _aggregation;
        right._aggregation = _aggregation;
        return {left, right};
    }
    const GroupSlice &s = _slices.front();
    // Odd sizes split unevenly; the ratio solver balances work against
    // the asymmetric aggregate rates.
    const int left_count = (s.count + 1) / 2;
    AcceleratorGroup left(s.spec, left_count);
    AcceleratorGroup right(s.spec, s.count - left_count);
    left._aggregation = _aggregation;
    right._aggregation = _aggregation;
    return {left, right};
}

std::string
AcceleratorGroup::toString() const
{
    std::string out;
    for (std::size_t i = 0; i < _slices.size(); ++i) {
        if (i)
            out += " + ";
        out += std::to_string(_slices[i].count);
        out += " x ";
        out += _slices[i].spec.name;
    }
    return out;
}

} // namespace accpar::hw

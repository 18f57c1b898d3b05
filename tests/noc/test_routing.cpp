// Unit tests for mesh geometry and dimension-ordered routing.

#include <gtest/gtest.h>

#include "noc/routing.h"

namespace nocbt::noc {
namespace {

TEST(MeshShape, CoordinateRoundTrip) {
  MeshShape shape(4, 4);
  for (std::int32_t node = 0; node < shape.node_count(); ++node) {
    EXPECT_EQ(shape.node_at(shape.coord_of(node)), node);
  }
}

TEST(MeshShape, RejectsDegenerate) {
  EXPECT_THROW(MeshShape(0, 4), std::invalid_argument);
  EXPECT_THROW(MeshShape(4, 0), std::invalid_argument);
}

TEST(MeshShape, NeighborsOfCorner) {
  MeshShape shape(4, 4);
  // Node 0 is the north-west corner.
  EXPECT_EQ(shape.neighbor(0, kEast), 1);
  EXPECT_EQ(shape.neighbor(0, kSouth), 4);
  EXPECT_EQ(shape.neighbor(0, kWest), -1);
  EXPECT_EQ(shape.neighbor(0, kNorth), -1);
}

TEST(MeshShape, NeighborsOfCenter) {
  MeshShape shape(4, 4);
  // Node 5 = (x=1, y=1).
  EXPECT_EQ(shape.neighbor(5, kEast), 6);
  EXPECT_EQ(shape.neighbor(5, kWest), 4);
  EXPECT_EQ(shape.neighbor(5, kNorth), 1);
  EXPECT_EQ(shape.neighbor(5, kSouth), 9);
}

TEST(MeshShape, NonSquare) {
  MeshShape shape(2, 8);  // 2 rows, 8 cols
  EXPECT_EQ(shape.node_count(), 16);
  EXPECT_EQ(shape.coord_of(9).x, 1);
  EXPECT_EQ(shape.coord_of(9).y, 1);
  EXPECT_EQ(shape.neighbor(7, kEast), -1);
  EXPECT_EQ(shape.neighbor(7, kSouth), 15);
}

TEST(MeshShape, ManhattanDistance) {
  MeshShape shape(4, 4);
  EXPECT_EQ(shape.manhattan(0, 15), 6);
  EXPECT_EQ(shape.manhattan(0, 0), 0);
  EXPECT_EQ(shape.manhattan(3, 12), 6);
  EXPECT_EQ(shape.manhattan(5, 6), 1);
}

TEST(Routing, OppositePorts) {
  EXPECT_EQ(opposite(kEast), kWest);
  EXPECT_EQ(opposite(kWest), kEast);
  EXPECT_EQ(opposite(kNorth), kSouth);
  EXPECT_EQ(opposite(kSouth), kNorth);
  EXPECT_THROW((void)opposite(kLocal), std::invalid_argument);
}

TEST(Routing, XYGoesXFirst) {
  MeshShape shape(4, 4);
  // From 0 (0,0) to 15 (3,3): XY must head east until x matches.
  EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kXY, 0, 15), kEast);
  EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kXY, 2, 15), kEast);
  EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kXY, 3, 15), kSouth);
  EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kXY, 11, 15), kSouth);
}

TEST(Routing, YXGoesYFirst) {
  MeshShape shape(4, 4);
  EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kYX, 0, 15), kSouth);
  EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kYX, 12, 15), kEast);
}

TEST(Routing, AtDestinationEjectsLocal) {
  MeshShape shape(4, 4);
  for (std::int32_t node = 0; node < 16; ++node) {
    EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kXY, node, node),
              kLocal);
    EXPECT_EQ(route_dimension_ordered(shape, RoutingAlgorithm::kYX, node, node),
              kLocal);
  }
}

// Property: following the XY routing function step by step from any source
// reaches any destination in exactly the Manhattan distance.
TEST(Routing, XYPathLengthEqualsManhattanDistance) {
  MeshShape shape(5, 7);
  for (std::int32_t src = 0; src < shape.node_count(); ++src) {
    for (std::int32_t dst = 0; dst < shape.node_count(); ++dst) {
      std::int32_t current = src;
      int hops = 0;
      while (current != dst) {
        const Port port =
            route_dimension_ordered(shape, RoutingAlgorithm::kXY, current, dst);
        ASSERT_NE(port, kLocal);
        current = shape.neighbor(current, port);
        ASSERT_GE(current, 0);
        ASSERT_LE(++hops, shape.node_count());
      }
      EXPECT_EQ(hops, shape.manhattan(src, dst));
    }
  }
}

// Property: XY routing never turns from Y back to X (the invariant that
// makes it deadlock-free on a mesh).
TEST(Routing, XYNeverTurnsBackToXAfterY) {
  MeshShape shape(6, 6);
  for (std::int32_t src = 0; src < shape.node_count(); ++src) {
    for (std::int32_t dst = 0; dst < shape.node_count(); ++dst) {
      std::int32_t current = src;
      bool seen_y = false;
      while (current != dst) {
        const Port port =
            route_dimension_ordered(shape, RoutingAlgorithm::kXY, current, dst);
        if (port == kNorth || port == kSouth) seen_y = true;
        if (port == kEast || port == kWest) {
          EXPECT_FALSE(seen_y);
        }
        current = shape.neighbor(current, port);
      }
    }
  }
}

}  // namespace
}  // namespace nocbt::noc

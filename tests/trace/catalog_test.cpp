// Checks the encoded catalog against Table 1's unambiguous facts.
#include "trace/catalog.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hpcfail::trace {
namespace {

TEST(LanlCatalog, HasTwentyTwoSystems) {
  const SystemCatalog& cat = SystemCatalog::lanl();
  EXPECT_EQ(cat.systems().size(), 22u);
  for (int id = 1; id <= 22; ++id) {
    EXPECT_TRUE(cat.contains(id));
    EXPECT_EQ(cat.system(id).id, id);
  }
  EXPECT_FALSE(cat.contains(0));
  EXPECT_FALSE(cat.contains(23));
  EXPECT_THROW(cat.system(23), InvalidArgument);
}

TEST(LanlCatalog, SiteTotalsMatchTable1) {
  const SystemCatalog& cat = SystemCatalog::lanl();
  // The paper quotes 4750 nodes; its abstract quotes 24101 processors but
  // the per-system column of Table 1 sums to 24092 -- we encode the
  // per-system column (see DESIGN.md).
  EXPECT_EQ(cat.total_nodes(), 4750);
  EXPECT_EQ(cat.total_procs(), 24092);
}

TEST(LanlCatalog, NodeAndProcessorCountsPerSystem) {
  const SystemCatalog& cat = SystemCatalog::lanl();
  const struct {
    int id;
    int nodes;
    int procs;
  } expected[] = {
      {1, 1, 8},      {2, 1, 32},     {3, 1, 4},     {4, 164, 328},
      {5, 256, 1024}, {6, 128, 512},  {7, 1024, 4096},
      {8, 1024, 4096}, {9, 128, 512}, {10, 128, 512}, {11, 128, 512},
      {12, 32, 128},  {13, 128, 256}, {14, 256, 512}, {15, 256, 512},
      {16, 256, 512}, {17, 256, 512}, {18, 512, 1024},
      {19, 16, 2048}, {20, 49, 6152}, {21, 5, 544},   {22, 1, 256},
  };
  for (const auto& e : expected) {
    const SystemInfo& sys = cat.system(e.id);
    EXPECT_EQ(sys.nodes, e.nodes) << "system " << e.id;
    EXPECT_EQ(sys.procs, e.procs) << "system " << e.id;
  }
}

TEST(LanlCatalog, HardwareTypeGrouping) {
  const SystemCatalog& cat = SystemCatalog::lanl();
  EXPECT_EQ(cat.system(1).hw_type, 'A');
  EXPECT_EQ(cat.system(2).hw_type, 'B');
  EXPECT_EQ(cat.system(3).hw_type, 'C');
  EXPECT_EQ(cat.system(4).hw_type, 'D');
  for (int id = 5; id <= 12; ++id) EXPECT_EQ(cat.system(id).hw_type, 'E');
  for (int id = 13; id <= 18; ++id) EXPECT_EQ(cat.system(id).hw_type, 'F');
  for (int id = 19; id <= 21; ++id) EXPECT_EQ(cat.system(id).hw_type, 'G');
  EXPECT_EQ(cat.system(22).hw_type, 'H');
  EXPECT_EQ(cat.hardware_types(),
            (std::vector<char>{'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'}));
}

TEST(LanlCatalog, NumaSplit) {
  const SystemCatalog& cat = SystemCatalog::lanl();
  for (int id = 1; id <= 18; ++id) {
    EXPECT_FALSE(cat.system(id).numa) << "system " << id;
  }
  for (int id = 19; id <= 22; ++id) {
    EXPECT_TRUE(cat.system(id).numa) << "system " << id;
  }
}

TEST(LanlCatalog, SystemsOfTypeReturnsIdOrder) {
  const auto type_e = SystemCatalog::lanl().systems_of_type('E');
  ASSERT_EQ(type_e.size(), 8u);
  EXPECT_EQ(type_e.front()->id, 5);
  EXPECT_EQ(type_e.back()->id, 12);
  EXPECT_TRUE(SystemCatalog::lanl().systems_of_type('Z').empty());
}

TEST(LanlCatalog, System12HasTheMemorySplitFromThePaper) {
  // Section 2.1: "the nodes of system 12 fall into two categories,
  // differing only in the amount of memory per node (4 vs 16 GB)".
  const SystemInfo& sys = SystemCatalog::lanl().system(12);
  ASSERT_EQ(sys.categories.size(), 2u);
  EXPECT_DOUBLE_EQ(sys.categories[0].memory_gb, 4.0);
  EXPECT_DOUBLE_EQ(sys.categories[1].memory_gb, 16.0);
  EXPECT_EQ(sys.categories[0].procs_per_node,
            sys.categories[1].procs_per_node);
}

TEST(LanlCatalog, System20Node0EnteredProductionLate) {
  // Footnote 4: node 0 of system 20 has been in production much shorter.
  const SystemInfo& sys = SystemCatalog::lanl().system(20);
  const NodeCategory& node0 = sys.category_for_node(0);
  const NodeCategory& others = sys.category_for_node(22);
  EXPECT_GT(node0.production_start, others.production_start);
  EXPECT_EQ(others.production_start, to_epoch(1997, 1, 1));
}

TEST(LanlCatalog, WorkloadAssignments) {
  const SystemCatalog& cat = SystemCatalog::lanl();
  const SystemInfo& sys20 = cat.system(20);
  // Nodes 21-23 of system 20 are the visualization nodes (Section 5.1).
  EXPECT_EQ(sys20.workload_of(21), Workload::graphics);
  EXPECT_EQ(sys20.workload_of(22), Workload::graphics);
  EXPECT_EQ(sys20.workload_of(23), Workload::graphics);
  EXPECT_EQ(sys20.workload_of(20), Workload::compute);
  EXPECT_EQ(sys20.workload_of(24), Workload::compute);
  // E/F clusters dedicate node 0 as a front-end.
  EXPECT_EQ(cat.system(7).workload_of(0), Workload::frontend);
  EXPECT_EQ(cat.system(14).workload_of(0), Workload::frontend);
  EXPECT_EQ(cat.system(7).workload_of(1), Workload::compute);
  // Single-node systems have no front-end split.
  EXPECT_EQ(cat.system(1).workload_of(0), Workload::compute);
}

TEST(LanlCatalog, ProductionWindows) {
  const SystemCatalog& cat = SystemCatalog::lanl();
  EXPECT_EQ(cat.system(20).production_start(), to_epoch(1997, 1, 1));
  EXPECT_EQ(cat.system(19).production_end(), to_epoch(2002, 9, 1));
  EXPECT_NEAR(cat.system(20).production_years(), 8.9, 0.1);
  EXPECT_GT(cat.system(2).production_years(), 7.0);
  EXPECT_EQ(SystemCatalog::observation_end(), to_epoch(2005, 11, 30));
}

TEST(LanlCatalog, CategoryForNodeBounds) {
  const SystemInfo& sys = SystemCatalog::lanl().system(4);
  EXPECT_NO_THROW(sys.category_for_node(0));
  EXPECT_NO_THROW(sys.category_for_node(163));
  EXPECT_THROW(sys.category_for_node(164), InvalidArgument);
  EXPECT_THROW(sys.category_for_node(-1), InvalidArgument);
}

TEST(CustomCatalog, ValidatesCategoryTiling) {
  SystemInfo bad;
  bad.id = 1;
  bad.hw_type = 'A';
  bad.nodes = 4;
  bad.procs = 8;
  bad.categories = {
      {0, 2, 2, 1.0, 0, to_epoch(2000, 1, 1), to_epoch(2001, 1, 1)},
      {3, 1, 2, 1.0, 0, to_epoch(2000, 1, 1), to_epoch(2001, 1, 1)},
  };  // gap at node 2
  EXPECT_THROW(SystemCatalog({bad}), InvalidArgument);
}

TEST(CustomCatalog, ValidatesProcessorTotals) {
  SystemInfo bad;
  bad.id = 1;
  bad.hw_type = 'A';
  bad.nodes = 2;
  bad.procs = 99;  // categories say 2 * 2 = 4
  bad.categories = {
      {0, 2, 2, 1.0, 0, to_epoch(2000, 1, 1), to_epoch(2001, 1, 1)},
  };
  EXPECT_THROW(SystemCatalog({bad}), InvalidArgument);
}

TEST(CustomCatalog, ValidatesProductionWindow) {
  SystemInfo bad;
  bad.id = 1;
  bad.hw_type = 'A';
  bad.nodes = 1;
  bad.procs = 2;
  bad.categories = {
      {0, 1, 2, 1.0, 0, to_epoch(2001, 1, 1), to_epoch(2000, 1, 1)},
  };  // reversed window
  EXPECT_THROW(SystemCatalog({bad}), InvalidArgument);
}

TEST(CustomCatalog, RejectsAProductionSpanBeyondTheLimit) {
  // One system whose two categories run from `first` to 2000 and from
  // 1999 to `last`: its span is the union of theirs.
  const auto catalog = [](int first, int last) {
    SystemInfo s;
    s.id = 1;
    s.hw_type = 'A';
    s.nodes = 2;
    s.procs = 4;
    s.categories = {
        {0, 1, 2, 1.0, 0, to_epoch(first, 1, 1), to_epoch(2000, 1, 1)},
        {1, 1, 2, 1.0, 0, to_epoch(1999, 1, 1), to_epoch(last, 1, 1)},
    };
    return SystemCatalog({s});
  };
  // Two billion years of months overflow the int month count that the
  // lifetime and trend analyses size their vectors by.
  EXPECT_THROW(catalog(-2000000000, 2000), InvalidArgument);
  // Each category alone is shorter than the limit; the system is not.
  EXPECT_THROW(catalog(1200, 2300), InvalidArgument);
  EXPECT_NO_THROW(catalog(1500, 2400));
}

TEST(CustomCatalog, FindsSparseIdsAndRejectsDuplicates) {
  const auto system = [](int id) {
    SystemInfo s;
    s.id = id;
    s.hw_type = 'A';
    s.nodes = 1;
    s.procs = 2;
    s.categories = {
        {0, 1, 2, 1.0, 0, to_epoch(2000, 1, 1), to_epoch(2001, 1, 1)},
    };
    return s;
  };
  const SystemCatalog catalog({system(7), system(2147483647), system(1)});
  EXPECT_EQ(catalog.position(7), 0u);
  EXPECT_EQ(catalog.position(2147483647), 1u);
  EXPECT_EQ(catalog.position(1), 2u);
  for (const int missing : {-2147483647 - 1, 0, 2, 6, 8, 2147483646}) {
    EXPECT_EQ(catalog.position(missing), SystemCatalog::npos) << missing;
    EXPECT_FALSE(catalog.contains(missing));
    EXPECT_THROW(catalog.system(missing), InvalidArgument);
  }
  EXPECT_EQ(catalog.system(2147483647).id, 2147483647);
  EXPECT_THROW(SystemCatalog({system(3), system(5), system(3)}),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcfail::trace

// Model file round trip: serialize a model to the XML model-file format
// (the two-part actors+relationships layout of paper §3.1), read it back,
// dump the AccMoS-generated simulation code, and run it.
//
//   $ ./examples/model_files [--dump-code]
#include <cstdio>
#include <cstring>

#include "codegen/accmos_engine.h"
#include "ir/model.h"
#include "parser/model_io.h"
#include "sim/simulator.h"

using namespace accmos;

int main(int argc, char** argv) {
  bool dumpCode = argc > 1 && std::strcmp(argv[1], "--dump-code") == 0;

  // The paper's Fig. 1/Fig. 5 shape: two inputs, a Minus, an output.
  Model model("Model");
  System& root = model.root();
  Actor& a = root.addActor("Inport_A", "Inport");
  a.params().setInt("port", 1);
  a.setDtype(DataType::I32);
  Actor& b = root.addActor("Inport_B", "Inport");
  b.params().setInt("port", 2);
  b.setDtype(DataType::I32);
  Actor& minus = root.addActor("Minus", "Sum");
  minus.params().set("ops", "+-");
  minus.setDtype(DataType::I32);
  root.connect("Inport_A", 1, "Minus", 1);
  root.connect("Inport_B", 1, "Minus", 2);
  Actor& out = root.addActor("Outport", "Outport");
  out.params().setInt("port", 1);
  root.connect("Minus", 1, "Outport", 1);

  // Write + re-read the model file.
  std::string xml = writeModelToString(model);
  std::printf("---- model file ----\n%s\n", xml.c_str());
  auto reread = readModelFromString(xml);

  TestCaseSpec tests;
  tests.seed = 5;
  tests.ports = {PortStimulus{-100.0, 100.0, {}},
                 PortStimulus{-100.0, 100.0, {}}};

  Simulator sim(*reread);
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 1000;
  AccMoSEngine engine(sim.flatModel(), opt, tests);

  if (dumpCode) {
    std::printf("---- generated simulation code ----\n%s\n",
                engine.generatedSource().c_str());
  } else {
    // Show the paper-shaped fragments (Fig. 4/Fig. 5).
    const std::string& src = engine.generatedSource();
    for (const char* needle : {"void diagnose_", "static void Model_Exe",
                               "int accmos_run("}) {
      size_t pos = src.find(needle);
      if (pos == std::string::npos) continue;
      size_t end = src.find("\n}", pos);
      std::printf("---- %s... ----\n%.*s\n}\n\n", needle,
                  static_cast<int>(std::min(end - pos, size_t{900})),
                  src.c_str() + pos);
    }
    std::printf("(run with --dump-code for the full program)\n\n");
  }

  auto res = engine.run();
  std::printf("simulated %llu steps; Minus output: %s\n",
              static_cast<unsigned long long>(res.stepsExecuted),
              res.finalOutputs[0].toString().c_str());
  return 0;
}
